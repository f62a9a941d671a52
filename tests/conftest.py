# Imported before any test module, whose numpy import would otherwise load
# OpenBLAS first: the package then pins BLAS to one thread, as every
# fermiwire command runs it, so the suite checks the bytes the CLI writes.
import fermiwire  # noqa: F401
