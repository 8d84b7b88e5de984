"""Packaging for the dynamic-DFS reproduction.

``numpy`` is a hard install dependency: ``import repro`` imports it, the
``backend="array"`` flat/CSR core runs on it, and the snapshot service and
tree indices answer batched queries with it on both backends.

Also ships ``tools.lint`` (the stdlib-only repro-lint static analysis suite,
see ``docs/lint.md``) with a ``repro-lint`` console entry point, so installed
checkouts can lint without knowing the module path.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dynamic-dfs",
    version="0.7.0",
    description="Reproduction of fully dynamic DFS (Khan, SPAA'17) with dict and numpy array backends",
    package_dir={"": "src", "tools": "tools"},
    packages=find_packages("src") + ["tools", "tools.lint", "tools.lint.rules"],
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-lint = tools.lint.cli:main",
        ],
    },
)
