"""Small pattern builders shared by the test suites (and the oracle
differential harness next to :mod:`oracle`)."""

import numpy as np

from repro.mbqc import Pattern

CLIFFORD_ANGLES = (0.0, np.pi / 2, -np.pi / 2, np.pi)


def j_pattern(alpha: float) -> Pattern:
    """The cluster-state J(α) primitive: one input, one ancilla."""
    p = Pattern(input_nodes=[0], output_nodes=[1])
    p.n(1).e(0, 1).m(0, "XY", -alpha).x(1, {0})
    return p


def j_chain(alphas) -> Pattern:
    """A chain of J(α) gadgets: one input, len(alphas) measurements."""
    p = Pattern(input_nodes=[0], output_nodes=[len(alphas)])
    for i, a in enumerate(alphas):
        p.n(i + 1).e(i, i + 1).m(i, "XY", -a, s_domain=set())
        p.x(i + 1, {i})
    return p


def random_clifford_pattern(seed: int) -> Pattern:
    """A random state-prep pattern whose every op is Clifford: random graph,
    random Pauli-eigenbasis measurements with random signal domains, random
    corrections and C gates on the outputs."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 8))
    n_out = int(rng.integers(1, 3))
    outputs = list(range(n_nodes - n_out, n_nodes))
    p = Pattern(input_nodes=[], output_nodes=outputs)
    for v in range(n_nodes):
        p.n(v, str(rng.choice(["plus", "plus", "zero", "one", "minus"])))
    for _ in range(int(rng.integers(n_nodes, 2 * n_nodes))):
        u, v = rng.choice(n_nodes, size=2, replace=False)
        p.e(int(u), int(v))
    done = []
    for node in range(n_nodes - n_out):
        plane = str(rng.choice(["XY", "YZ", "XZ"]))
        angle = float(rng.choice(CLIFFORD_ANGLES))
        s_dom = {x for x in done if rng.random() < 0.3}
        t_dom = {x for x in done if rng.random() < 0.3}
        p.m(node, plane, angle, s_dom, t_dom)
        done.append(node)
    for node in outputs:
        if done and rng.random() < 0.5:
            p.x(node, {x for x in done if rng.random() < 0.4} or {done[0]})
        if done and rng.random() < 0.5:
            p.z(node, {x for x in done if rng.random() < 0.4} or {done[-1]})
        if rng.random() < 0.5:
            p.c(node, str(rng.choice(["h", "s", "sdg", "x", "y", "z"])))
    return p

