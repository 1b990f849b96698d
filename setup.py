from setuptools import Extension, setup

# Two compiled kernels, one function each, each with a pure-python twin that
# it matches exactly: allpath._balance_core's run_replication (twin
# allpath._balance_py), the balance replication loop, and allpath._fluid_core's
# step (twin allpath.simnet.step_py), one whole fluid-plane recompute, its
# max-min fill included.  Both are
# optional: a kernel that does not compile is skipped without error and the
# package runs on its twin; KERNEL in allpath.balance and allpath.simnet tells
# which is in use.  -ffp-contract=off keeps the compiler from fusing a
# multiply and an add, which would round differently from the twins.
setup(ext_modules=[
    Extension(name, [source], optional=True, extra_compile_args=["-ffp-contract=off"])
    for name, source in [("allpath._balance_core", "src/allpath/_balance_core.c"),
                         ("allpath._fluid_core", "src/allpath/_fluid_core.c")]
])
