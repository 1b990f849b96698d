from setuptools import Extension, setup

# Two compiled kernels, each with a pure-python twin that it matches exactly:
# allpath._balance_core (twin allpath._balance_py), the balance replication
# loop, and allpath._fluid_core, the fluid plane: its step (twin
# allpath.simnet.step_py) runs one whole recompute around its max-min fill
# (twin allpath.simnet.fill_py).  Both are optional: without a C compiler the
# package installs and runs on the twins.  -ffp-contract=off keeps the
# compiler from fusing a multiply and an add, which would round differently
# from the twins.
setup(ext_modules=[
    Extension(name, [source], optional=True, extra_compile_args=["-ffp-contract=off"])
    for name, source in [("allpath._balance_core", "src/allpath/_balance_core.c"),
                         ("allpath._fluid_core", "src/allpath/_fluid_core.c")]
])
