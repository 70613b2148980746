"""Two small annotated MiniC subjects shared by the serve suites."""

#: A pure scalar reduction: every loop-body PSE is an accumulator or an
#: induction variable, read and written on every iteration.
SCALAR_REDUCTION_SOURCE = """
int main() {
    int sum;
    sum = 0;
    for (int r = 0; r < 8; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            int acc = 0;
            for (int i = 0; i < 64; ++i) {
                acc = acc + i * 3;
            }
            sum = sum + acc;
        }
    }
    print_int(sum);
    return 0;
}
"""

#: An induction-walked array kernel: every ROI invocation reads and
#: writes each element of ``a``.
ARRAY_ROI_SOURCE = """
int main() {
    int a[16];
    int sum;
    sum = 0;
    for (int r = 0; r < 8; ++r) {
        #pragma carmot roi abstraction(parallel_for)
        {
            for (int i = 0; i < 16; ++i) {
                a[i] = a[i] + r;
                sum = sum + a[i];
            }
        }
    }
    print_int(sum);
    return 0;
}
"""
