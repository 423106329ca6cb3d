from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Hardware-assisted malware detection with uncertainty-aware "
        "fleet monitoring (paper reproduction + scaling extensions)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native kernels are built from source on first use.
    package_data={"repro.ml": ["*.c"], "repro.hmd": ["*.c"]},
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    # Modern typing syntax; 3.10 is the tested floor.
    python_requires=">=3.10",
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Operating System :: POSIX",
    ],
)
