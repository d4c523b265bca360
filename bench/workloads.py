"""Workload definitions: seeded input generation and the CLI invocations to run.

Every input file is generated here from the workload seed; the program under
test only ever sees these files and the command-line arguments built below.
The seed changes the values in the inputs (model probabilities, ciphertexts,
corpus text) but never their sizes, so the amount of work per invocation is
the same for every seed.

Sizes are chosen so one session (all invocations of a workload, run one after
another) takes a few seconds on a 2-core machine, which lets a single
benchmark run take several sessions and report medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# certify / concentrate: binary plaintext of order 5 (32 contexts) and binary
# key of order 2 (4 contexts), i.e. S = 128 product states and the dense
# product-chain operator.
PAIR_X_ORDER = 5
PAIR_Y_ORDER = 2
BOUNDS_M = 10
PSI_T = 22
PSI_EPS = 0.1
POSTERIOR_T = 18
SMB_T = (200, 800)
SMB_SAMPLES = 2048
SMB_EPS = 0.05
SMB_DELTA = 0.05
# a fixed --h-ref keeps the bracket enumeration out of the smb runs; h_ref only
# sets the band the samples are counted in, not the work done
SMB_H_REF = 0.7

# bytes: a 100 KB corpus over a 96-symbol alphabet (the size of printable
# ASCII plus newline), an order-2 model over it (9216 contexts, written then
# read back), and a byte-alphabet (n = 256) order-1 model against an i.i.d.
# byte key, which puts the product chain (S = 256, n * S**2 > 2**22) on the
# CSR side of its dense/CSR choice.
CORPUS_BYTES = 100_000
CORPUS_SYMBOLS = 96
CORPUS_VOCABULARY = 2000
TEXT_ORDER = 2
BYTE_SMB_T = (10, 40)
BYTE_SMB_SAMPLES = 128
BYTE_SMB_EPS = 0.5
BYTE_SMB_H_REF = 5.0

DEFAULT_SEED = 0


@dataclass
class Invocation:
    """One CLI invocation: its argv and the file it writes."""

    label: str
    argv: list[str]
    output: str
    # facts the checker needs that are not in the report itself
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    build: object  # (rng, workdir, seed) -> list[Invocation]


def _state_label(state: int, n: int, k: int) -> str:
    if k == 0:
        return "-"
    digits = []
    for _ in range(k):
        state, d = divmod(state, n)
        digits.append(str(d))
    return ",".join(reversed(digits))


def write_model(path: Path, table: np.ndarray, order: int) -> None:
    """Write an emission table in the CLI's model-file format."""
    n = table.shape[1]
    lines = [f"n {n}", f"order {order}"]
    for s, row in enumerate(table):
        probs = " ".join(f"{p:.17g}" for p in row)
        lines.append(f"row {_state_label(s, n, order)} {probs}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _binary_table(rng, order: int, low: float, high: float) -> np.ndarray:
    p1 = rng.uniform(low, high, size=2**order)
    return np.column_stack([1.0 - p1, p1])


def _sample_binary(rng, table: np.ndarray, order: int, length: int) -> np.ndarray:
    size = 2**order
    state = int(rng.integers(size))
    out = np.empty(length, dtype=np.int64)
    for i in range(length):
        sym = int(rng.random() < table[state, 1])
        out[i] = sym
        state = (state * 2 + sym) % size
    return out


def _pair_models(rng, work: Path):
    x = _binary_table(rng, PAIR_X_ORDER, 0.05, 0.95)
    y = _binary_table(rng, PAIR_Y_ORDER, 0.3, 0.7)
    write_model(work / "x.model", x, PAIR_X_ORDER)
    write_model(work / "y.model", y, PAIR_Y_ORDER)
    return x, y


def _ciphertext(rng, x, y, length: int) -> str:
    xs = _sample_binary(rng, x, PAIR_X_ORDER, length)
    ys = _sample_binary(rng, y, PAIR_Y_ORDER, length)
    return "".join(str(v) for v in (xs ^ ys).tolist())


def _pair_args() -> list[str]:
    return ["--x-model", "x.model", "--y-model", "y.model"]


def build_certify(rng, work: Path, seed: int) -> list[Invocation]:
    x, y = _pair_models(rng, work)
    z_psi = _ciphertext(rng, x, y, PSI_T)
    z_post = _ciphertext(rng, x, y, POSTERIOR_T)
    return [
        Invocation("bounds", ["bounds", *_pair_args(), "--m", str(BOUNDS_M),
                              "--out", "bounds.json"], "bounds.json",
                   {"m": BOUNDS_M}),
        Invocation("psi", ["psi", *_pair_args(), "--z", z_psi,
                           "--eps", str(PSI_EPS), "--out", "psi.json"],
                   "psi.json", {"n": 2, "t": PSI_T}),
        Invocation("posterior", ["posterior", *_pair_args(), "--z", z_post,
                                 "--format", "csv", "--out", "posterior.csv"],
                   "posterior.csv", {"n": 2, "t": POSTERIOR_T}),
    ]


def build_concentrate(rng, work: Path, seed: int) -> list[Invocation]:
    _pair_models(rng, work)
    return [
        Invocation("smb", ["smb", *_pair_args(),
                           "--t", ",".join(map(str, SMB_T)),
                           "--samples", str(SMB_SAMPLES),
                           "--eps", str(SMB_EPS), "--delta", str(SMB_DELTA),
                           "--seed", str(seed), "--h-ref", repr(SMB_H_REF),
                           "--out", "smb.json"],
                   "smb.json", {"samples": SMB_SAMPLES, "t": list(SMB_T)}),
    ]


def _corpus(rng) -> bytes:
    """Zipf-distributed words over symbols 1..CORPUS_SYMBOLS-1, separated by symbol 0."""
    lengths = rng.integers(1, 9, size=CORPUS_VOCABULARY)
    vocabulary = [
        rng.integers(1, CORPUS_SYMBOLS, size=int(n)).astype(np.uint8).tobytes() + b"\x00"
        for n in lengths
    ]
    weights = 1.0 / np.arange(1, CORPUS_VOCABULARY + 1)
    picks = rng.choice(CORPUS_VOCABULARY, size=CORPUS_BYTES // 2, p=weights / weights.sum())
    text = b"".join(vocabulary[i] for i in picks.tolist())
    if len(text) < CORPUS_BYTES:
        raise RuntimeError("corpus generator produced too little text")
    return text[:CORPUS_BYTES]


def build_bytes(rng, work: Path, seed: int) -> list[Invocation]:
    (work / "corpus.bin").write_bytes(_corpus(rng))
    key = rng.dirichlet(np.full(256, 4.0))
    write_model(work / "key.model", key[None, :], 0)
    return [
        Invocation("train_order2", ["train", "--corpus", "corpus.bin",
                                    "--n", str(CORPUS_SYMBOLS),
                                    "--order", str(TEXT_ORDER),
                                    "--out", "order2.model"],
                   "order2.model", {"n": CORPUS_SYMBOLS, "order": TEXT_ORDER}),
        Invocation("entropy", ["entropy", "--x-model", "order2.model",
                               "--m", "0,1,2", "--out", "entropy.json"],
                   "entropy.json", {"n": CORPUS_SYMBOLS}),
        Invocation("train_order1", ["train", "--corpus", "corpus.bin",
                                    "--n", "256", "--order", "1",
                                    "--out", "order1.model"],
                   "order1.model", {"n": 256, "order": 1}),
        Invocation("smb", ["smb", "--x-model", "order1.model",
                           "--y-model", "key.model",
                           "--t", ",".join(map(str, BYTE_SMB_T)),
                           "--samples", str(BYTE_SMB_SAMPLES),
                           "--eps", str(BYTE_SMB_EPS), "--delta", str(SMB_DELTA),
                           "--seed", str(seed), "--h-ref", repr(BYTE_SMB_H_REF),
                           "--out", "smb.json"],
                   "smb.json", {"samples": BYTE_SMB_SAMPLES, "t": list(BYTE_SMB_T)}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify",
                 "enumeration-heavy: certified h(X|Z) bracket, typical set and a "
                 "posterior CSV at S=128; no sampling, no forward recursion",
                 build_certify),
        Workload("concentrate",
                 "SMB Monte Carlo at S=128 with a fixed h_ref: dense forward "
                 "recursion, binary walks, per-sample RNG; no enumeration",
                 build_concentrate),
        Workload("bytes",
                 "byte-scale models: order-2 model construction, write and read, "
                 "then SMB on the CSR product chain (n=256)",
                 build_bytes),
    )
}


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    """Generate the inputs of workload ``name`` into ``work`` and return its invocations."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, *name.encode()]))
    return WORKLOADS[name].build(rng, work, seed)
