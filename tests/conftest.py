import survfuse  # noqa: F401  (before any test module loads numpy)

# survfuse's package init sets the one-BLAS-thread default, and OpenBLAS reads
# it only when numpy first loads it. Test modules import numpy before
# survfuse, so without this import the in-process runs would keep the
# library's default thread count.
