"""Seeded random MiniC program generation for differential suites.

Every differential suite — VM equivalence, live-vs-decoded stage
outputs, serve round-trips, recommendation warm/cold — draws from one
generator family instead of copy-pasting program shapes.  The programs
are deterministic per seed: same seed, same source bytes, so cache keys
and golden digests stay stable across suites and sessions.

Families:

- :func:`random_program` — scalar arithmetic with data-dependent control
  flow, array walks, helper calls, and recursion; enough surface to
  shake out operand-slot, phi, call-lowering, and probe-planning bugs;
- :func:`random_roi_program` — the inner loop wrapped in a
  ``#pragma carmot roi``, mixing fixed-state and data-dependent PSEs;
- :func:`random_pointer_chase_program` — a heap-allocated permutation
  walked by ``cur = next[cur]`` inside an ROI: every iteration's access
  depends on the previous iteration's load, so the chased container
  carries Transfer state and the Sets cannot be proven statically.
"""

import random


def random_program(seed: int) -> str:
    """A seeded random MiniC program (deterministic per ``seed``)."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    mod = rng.choice([7, 11, 13, 17])
    mul = rng.choice([3, 5, 9])
    cmp_op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    bin_op = rng.choice(["&", "|", "^"])
    shift = rng.randint(1, 5)
    rec_depth = rng.randint(3, 9)
    return f"""
int helper(int v) {{
    if (v {cmp_op} {rng.randint(0, 40)}) {{
        return v * {mul} + 1;
    }}
    return v - {rng.randint(1, 5)};
}}
int rec(int d, int acc) {{
    if (d <= 0) {{ return acc; }}
    return rec(d - 1, acc + d * {rng.randint(1, 4)});
}}
int main() {{
    int a[{n}];
    int i;
    int acc = {rng.randint(0, 9)};
    float f = {rng.randint(1, 9)}.5;
    for (i = 0; i < {n}; ++i) {{
        a[i] = helper(i) % {mod};
        acc = acc + a[i];
        if (acc % 2 == 0) {{
            acc = acc {bin_op} (i << {shift});
        }} else {{
            acc = acc - (a[i] >> 1);
        }}
        f = f + 0.25;
    }}
    acc = acc + rec({rec_depth}, 0);
    print_int(acc % 100000);
    print_float(f);
    return acc % 100;
}}
"""


def random_roi_program(seed: int) -> str:
    """A seeded random MiniC program whose inner loop is wrapped in a
    ``#pragma carmot roi`` — the ROI subject of the differential suites.

    The shape deliberately mixes PSEs whose Set membership is the same
    every iteration (an accumulator read+written every iteration, an
    induction slot) with data-dependent ones (conditionally-written
    scalars, accesses behind a helper call), so one ROI exercises both
    the compile-time planners and the dynamic FSA.
    """
    rng = random.Random(seed ^ 0x5EED)
    n = rng.randint(8, 24)
    outer = rng.randint(2, 5)
    mul = rng.choice([3, 5, 7])
    mod = rng.choice([11, 13, 17])
    cond_mod = rng.choice([2, 3, 4])
    return f"""
int helper(int v) {{
    return v * {mul} + 1;
}}
int main() {{
    int a[{n}];
    int sum;
    int odd;
    sum = 0;
    odd = {rng.randint(0, 5)};
    for (int r = 0; r < {outer}; ++r) {{
        #pragma carmot roi abstraction(parallel_for)
        {{
            for (int i = 0; i < {n}; ++i) {{
                a[i] = helper(i + r) % {mod};
                sum = sum + a[i];
                if (a[i] % {cond_mod} == 0) {{
                    odd = odd + 1;
                }}
            }}
        }}
    }}
    print_int(sum);
    print_int(odd);
    return sum % 100;
}}
"""


def random_pointer_chase_program(seed: int) -> str:
    """A seeded pointer-chase over a heap permutation, ROI-wrapped.

    ``next`` holds a stride-generated permutation of ``0..n-1`` (stride
    coprime to ``n``, so the walk is one full cycle); the ROI chases
    ``cur = next[cur]`` and folds the visited payloads.  The chased
    index is loop-carried — iteration ``k``'s address is iteration
    ``k-1``'s loaded value — so the container is irreducibly Transfer
    and no compile-time analysis can classify its elements.  Deterministic per
    ``seed``.
    """
    rng = random.Random(seed ^ 0xC4A5E)
    n = rng.choice([16, 24, 32, 40])
    # Any stride coprime to n permutes 0..n-1 in one cycle; n above is
    # divisible by 8, so odd non-unit strides below n qualify.
    stride = rng.choice([s for s in (3, 5, 7, 9, 11, 13) if s < n])
    outer = rng.randint(2, 4)
    mul = rng.choice([3, 5, 7])
    mod = rng.choice([11, 13, 17])
    return f"""
int main() {{
    int *next = (int*) malloc({n} * sizeof(int));
    int *payload = (int*) malloc({n} * sizeof(int));
    int sum = {rng.randint(0, 5)};
    for (int i = 0; i < {n}; ++i) {{
        next[i] = (i + {stride}) % {n};
        payload[i] = (i * {mul}) % {mod};
    }}
    for (int r = 0; r < {outer}; ++r) {{
        #pragma carmot roi abstraction(parallel_for)
        {{
            int cur = r % {n};
            for (int k = 0; k < {n}; ++k) {{
                sum = sum + payload[cur];
                payload[cur] = (payload[cur] + r) % {mod};
                cur = next[cur];
            }}
        }}
    }}
    print_int(sum);
    free((char*) next);
    free((char*) payload);
    return sum % 100;
}}
"""
