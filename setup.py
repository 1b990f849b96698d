from setuptools import Extension, setup

# optional: without a C compiler the package installs and runs on the
# pure-python twin, allpath._balance_py.  -ffp-contract=off keeps the
# compiler from fusing a multiply and an add, which would round differently
# from the Python twin.
setup(ext_modules=[
    Extension("allpath._balance_core", ["src/allpath/_balance_core.c"],
              optional=True, extra_compile_args=["-ffp-contract=off"]),
])
