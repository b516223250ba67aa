"""Data model for weakly-coupled MDP instances.

An instance is a collection of N arms, each a small MDP over a shared state
space S and action space A, plus K per-step budget constraints. Action 0 is
the distinguished free action: it incurs zero cost of every type for every
arm in every state, which guarantees that a feasible system action always
exists.

The arms are stored as four read-only arrays stacked along the arm axis:
transition (N, S, A, S), reward (N, S, A), cost (N, K, S, A) and the budget
coefficients alpha (K,). Every consumer indexes these arrays directly;
distinct_arms maps repeated arms, such as the typed family's copies, to one
representative each. The JSON file format keeps one object per stored arm:

    {"N": ..., "S": ..., "A": ..., "K": ...,
     "alpha": [...],
     "arms": [{"P": [[[...]]], "r": [[...]], "c": [[[...]]]}, ...],
     "arm_type": [...]}

When every arm is distinct, "arms" holds all N arms in order and there is no
"arm_type". When some arm repeats, "arms" holds each distinct arm once, in
order of first occurrence, and "arm_type" is the list of N indices into it:
arm i is arms[arm_type[i]]. Every stored arm must be referenced. A reader
accepts both forms.

Floats are serialized with Python's shortest round-trip representation, so a
serialize/deserialize cycle reproduces the instance bit for bit. Arms are
matched on their bytes, so an arm that differs from another only by -0.0
against 0.0 is stored on its own.

This module alone writes or parses the format, and alone in the package
opens a file. writing() is the one writer: its write(path, chunks) writes
text pieces as they come to a temporary file beside each target, and only
when every file of the block is whole are they renamed over their targets,
in the order written, so a failed write leaves every target as it was and
no temporary file. read_file decodes a file's bytes as json.loads does
(UTF-8, UTF-16 or UTF-32, with or without a byte order mark) and hashes
them. save streams json_chunks, one stored arm's text at a time, through
its own writing() block; load parses with an object hook that makes each
arm's P, r and c float64 arrays as soon as the arm is parsed. The heap
peaks of save and load are about 0.4 and 2 times the file size.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9

FULLY_HETEROGENEOUS = "fully_heterogeneous"
TYPED = "typed"
COST_STATE_ACTION = "state_action"
COST_ACTION_ONLY = "action_only"

# Budget coefficients are drawn from {0.05, 0.10, ..., 0.45}: one uniform
# integer in [1, 9] per constraint, times the grid step.
ALPHA_GRID_STEP = 0.05

# largest state count validate() accepts (the int16 range)
MAX_STATES = int(np.iinfo(np.int16).max)

# largest |entry| validate() accepts in a reward or cost table. Entries up to
# it still solve and pass check_solution; a cost of 1e8 already fails the
# absolute budget audit, and a reward of 1e100 stops the HiGHS master.
MAX_ENTRY = 1e6

_NDIM = {"transition": 4, "reward": 3, "cost": 4, "alpha": 1}


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WcmdpInstance:
    """N arms stacked along the leading axis, plus the budget coefficients.

    transition[i, s, a, s'] is the probability that arm i moves to s' when
    action a is taken in state s; reward[i, s, a] its immediate reward;
    cost[i, k, s, a] its type-k cost. The type-k budget available to the
    whole system at every step is alpha[k] * N. The arrays are stored
    read-only; an array with the wrong number of dimensions raises
    ValueError, and validate() checks everything else.
    """

    transition: np.ndarray  # (N, S, A, S)
    reward: np.ndarray      # (N, S, A)
    cost: np.ndarray        # (N, K, S, A)
    alpha: np.ndarray       # (K,)

    def __post_init__(self):
        for name, ndim in _NDIM.items():
            a = _readonly(getattr(self, name))
            if a.ndim != ndim:
                raise ValueError(f"{name}: expected {ndim} dimensions, "
                                 f"got shape {a.shape}")
            object.__setattr__(self, name, a)

    @property
    def num_arms(self) -> int:
        return self.transition.shape[0]

    @property
    def num_states(self) -> int:
        return self.transition.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[2]

    @property
    def num_constraints(self) -> int:
        return len(self.alpha)

    @property
    def r_max(self) -> float:
        """Largest absolute reward over all arms."""
        return float(np.max(np.abs(self.reward)))

    @property
    def c_max(self) -> float:
        """Largest cost over all arms and types."""
        return float(np.max(self.cost))

    def json_chunks(self) -> Iterator[str]:
        """The text of to_json() in pieces: the header, then one
        json.dumps of {"P", "r", "c"} per stored arm, then the trailer,
        with arm_type when some arm repeats. Only one arm is held as Python
        objects at a time."""
        stored, inverse = distinct_arms(self.transition, self.reward,
                                        self.cost)
        header = {"N": self.num_arms, "S": self.num_states,
                  "A": self.num_actions, "K": self.num_constraints,
                  "alpha": self.alpha.tolist()}
        # the header object's text without its closing brace
        yield json.dumps(header)[:-1] + ', "arms": ['
        for n, (P, r, c) in enumerate(zip(*stored)):
            yield (", " if n else "") + json.dumps(
                {"P": P.tolist(), "r": r.tolist(), "c": c.tolist()})
        if len(stored[0]) == self.num_arms:
            yield "]}"
        else:
            yield '], "arm_type": ' + json.dumps(inverse.tolist()) + "}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    @classmethod
    def from_json(cls, data: str | bytes) -> "WcmdpInstance":
        """Inverse of to_json; reads both the full and the arm_type form.
        Each arm's tables become float64 arrays as soon as that arm is
        parsed, so the parsed floats are never all held as Python objects
        at once. A missing, empty, ragged or non-numeric field (a string,
        boolean or null where a number belongs included), a bad arm_type,
        or an N/S/A/K header that disagrees with the arrays, raises
        ValueError naming it."""
        d = json.loads(data, object_pairs_hook=_decode_arm)
        arms = _field(d, "arms")
        if not isinstance(arms, list) or not arms:
            raise ValueError("arms: expected a non-empty list of arm objects")
        tables = [_stack([_field(a, key) for a in arms], f"arms[].{key}")
                  for key in _ARM_KEYS]
        if "arm_type" in d:
            arm_type = _arm_type(d["arm_type"], len(arms))
            tables = [t.take(arm_type, axis=0) for t in tables]
        transition, reward, cost = tables
        instance = cls(transition=transition, reward=reward, cost=cost,
                       alpha=_float_array(_field(d, "alpha"), "alpha"))
        for key, size in (("N", instance.num_arms), ("S", instance.num_states),
                          ("A", instance.num_actions),
                          ("K", instance.num_constraints)):
            value = _field(d, key)
            if type(value) is not int or value != size:
                raise ValueError(f"{key}: header says {value!r}, the arrays "
                                 f"have {size}")
        return instance

    def save(self, path) -> str:
        """Write to_json() to `path`, whole or not at all; returns its
        sha256."""
        with writing() as write:
            return write(path, self.json_chunks())

    @classmethod
    def load(cls, path) -> "WcmdpInstance":
        """The instance in the file at `path`, read by read_file."""
        return cls.from_json(read_file(path)[0])


@contextlib.contextmanager
def writing() -> Iterator[Callable[[object, Iterable[str]], str]]:
    """Yield write(path, chunks), which writes the text pieces as they come,
    UTF-8 encoded, to a temporary file beside `path` and returns the bytes'
    sha256. When the block ends, every file written in it is renamed over
    its target, in the order written; if anything in the block raises,
    every temporary file is removed and no target is touched."""
    staged = []

    def write(path, chunks: Iterable[str]) -> str:
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        digest = hashlib.sha256()
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                digest.update(data)
                fh.write(data)
        return digest.hexdigest()

    try:
        yield write
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def read_file(path) -> tuple[str, str]:
    """The text of the file at `path`, decoded as json.loads decodes bytes,
    and the sha256 of its bytes, which are dropped before any parse."""
    data = Path(path).read_bytes()
    return (data.decode(json.detect_encoding(data), "surrogatepass"),
            hashlib.sha256(data).hexdigest())


_ARM_KEYS = ("P", "r", "c")


def _decode_arm(pairs: list) -> dict:
    """json object hook: an object's P, r and c values as float64 arrays;
    a value that fails _float_array's checks raises ValueError naming
    arms[].<key>."""
    d = dict(pairs)
    for key in _ARM_KEYS:
        if key in d:
            d[key] = _float_array(d[key], f"arms[].{key}")
    return d


def _stack(values: list, name: str) -> np.ndarray:
    """One table of every stored arm stacked along a new leading axis."""
    for i, v in enumerate(values):
        if v.shape != values[0].shape:
            raise ValueError(f"{name}: stored arm {i} has shape {v.shape}, "
                             f"arm 0 has {values[0].shape}")
    return np.stack(values)


def _field(d, key: str):
    try:
        return d[key]
    except (KeyError, TypeError):
        raise ValueError(f"missing field {key!r}") from None


def _arm_type(value, count: int) -> np.ndarray:
    """The arm_type list as an index array into `count` stored arms."""
    if not isinstance(value, list) or not value:
        raise ValueError("arm_type: expected a non-empty list of arm indices")
    for i, j in enumerate(value):
        # bool is an int subclass, so test the exact type
        if type(j) is not int or not 0 <= j < count:
            raise ValueError(f"arm_type[{i}] = {j!r} is not an index into "
                             f"the {count} stored arms")
    index = np.array(value, dtype=np.intp)
    unused = np.flatnonzero(np.bincount(index, minlength=count) == 0)
    if unused.size:
        raise ValueError(f"arm_type: stored arm {unused[0]} is never "
                         "referenced")
    return index


def _float_array(value, name: str) -> np.ndarray:
    # checked before conversion: float() also takes "0.5", true and null
    try:
        cells = np.array(value, dtype=object)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    wrong = sorted(k.__name__ for k in set(map(type, cells.flat))
                   if issubclass(k, bool) or not issubclass(k, (int, float)))
    if wrong:
        raise ValueError(f"{name}: expected an array of numbers, found "
                         f"{', '.join(wrong)}")
    try:
        return cells.astype(np.float64)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the random instance generator.

    family selects the sampling scheme; num_types is only meaningful for the
    typed family and must divide num_arms. cost_mode = action_only makes each
    cost table depend on the action alone (identical across states).
    """

    seed: int
    num_arms: int
    num_states: int
    num_actions: int
    num_constraints: int
    family: str = FULLY_HETEROGENEOUS
    num_types: int = 1
    cost_mode: str = COST_STATE_ACTION

    def check(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.num_arms < 1 or self.num_states < 1 or self.num_actions < 1:
            raise ValueError("num_arms, num_states, num_actions must be positive")
        if self.num_constraints < 1:
            raise ValueError("num_constraints must be positive")
        if self.num_states > MAX_STATES:
            raise ValueError(f"num_states={self.num_states} exceeds "
                             f"{MAX_STATES}, the largest supported state count")
        if self.family not in (FULLY_HETEROGENEOUS, TYPED):
            raise ValueError(f"unknown family {self.family!r}")
        if self.cost_mode not in (COST_STATE_ACTION, COST_ACTION_ONLY):
            raise ValueError(f"unknown cost_mode {self.cost_mode!r}")
        if self.family == TYPED:
            if self.num_types < 1:
                raise ValueError("num_types must be positive")
            if self.num_arms % self.num_types != 0:
                raise ValueError(
                    f"num_arms={self.num_arms} not divisible by num_types={self.num_types}")


def _simplex_rows(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Rows uniform on the probability simplex via normalized exponentials."""
    e = rng.exponential(1.0, shape)
    e /= e.sum(axis=-1, keepdims=True)
    # second pass so stored row sums are 1 at the last ulp
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sample_arms(rng: np.random.Generator, cfg: GeneratorConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (transition, reward, cost) of all num_arms arms. The typed
    family samples num_types arms and writes each one straight into its
    contiguous block of num_arms // num_types rows; the fully heterogeneous
    family samples every arm. Arms are sampled in index order; per arm the
    reward table, the transition tensor, the cost tensor."""
    N, S, A, K = (cfg.num_arms, cfg.num_states, cfg.num_actions,
                  cfg.num_constraints)
    count = cfg.num_types if cfg.family == TYPED else N
    copies = N // count
    transition = np.empty((N, S, A, S))
    reward = np.zeros((N, S, A))
    cost = np.zeros((N, K, S, A))
    for i in range(count):
        rows = slice(i * copies, (i + 1) * copies)
        if A > 1:
            reward[rows, :, 1:] = rng.random((S, A - 1))
        transition[rows] = _simplex_rows(rng, (S, A, S))
        if A > 1:
            if cfg.cost_mode == COST_ACTION_ONLY:
                per_action = rng.random((K, A - 1))
                cost[rows, :, :, 1:] = per_action[:, None, :]
            else:
                cost[rows, :, :, 1:] = rng.random((K, S, A - 1))
    return transition, reward, cost


def _sample_alpha(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.integers(1, 10, size=k).astype(np.float64) * ALPHA_GRID_STEP


def generate(cfg: GeneratorConfig) -> WcmdpInstance:
    """Random instance of the configured family.

    Per sampled arm: rewards of action 0 are 0 and other rewards are U[0,1];
    transition rows are uniform on the simplex; costs of action 0 are 0 and
    other costs are U[0,1]. Budget coefficients come from the 0.05 grid.
    A typed instance samples num_types arms and copies each verbatim to a
    contiguous block of num_arms // num_types arms; a fully heterogeneous
    instance is the typed one with one arm per type. Deterministic given
    cfg.seed: alpha is drawn first, then the sampled arms in index order
    (reward table, transition tensor, cost tensor).
    """
    cfg.check()
    rng = np.random.default_rng(cfg.seed)
    alpha = _sample_alpha(rng, cfg.num_constraints)
    transition, reward, cost = _sample_arms(rng, cfg)
    return WcmdpInstance(transition=transition, reward=reward, cost=cost,
                         alpha=alpha)


def validate(instance: WcmdpInstance) -> list[str]:
    """Check every model invariant; return one message per violation.

    An empty list means the instance is well formed. Messages name the arm
    index, the offending field, and the measured value.
    """
    N, S, A, K = (instance.num_arms, instance.num_states,
                  instance.num_actions, instance.num_constraints)
    if N == 0:
        return ["instance: no arms"]
    out = [f"instance: no {name}" for name, size in
           (("states", S), ("actions", A), ("constraints", K)) if size == 0]
    if S > MAX_STATES:
        out.append(f"instance: S = {S} exceeds {MAX_STATES}, the largest "
                   "supported state count")
    expected = {"transition": (N, S, A, S), "reward": (N, S, A),
                "cost": (N, K, S, A)}
    out += [f"instance: {name} has shape {getattr(instance, name).shape}, "
            f"expected {shape}"
            for name, shape in expected.items()
            if getattr(instance, name).shape != shape]
    if out:
        return out

    for k, a in enumerate(instance.alpha):
        if not np.isfinite(a):
            out.append(f"instance: alpha[{k}] = {a} is not finite")
        elif not a > 0:
            out.append(f"instance: alpha[{k}] = {a} is not positive")

    P, cost = instance.transition, instance.cost
    for name in ("transition", "reward", "cost"):
        finite = np.isfinite(getattr(instance, name)).reshape(N, -1).all(axis=1)
        for i in np.flatnonzero(~finite):
            out.append(f"arm {i}: non-finite {name} entry")
    for name in ("reward", "cost"):
        table = getattr(instance, name).reshape(N, -1)
        worst = np.abs(np.where(np.isfinite(table), table, 0.0)).argmax(axis=1)
        value = table[np.arange(N), worst]
        for i in np.flatnonzero(np.abs(value) > MAX_ENTRY):
            out.append(f"arm {i}: {name} entry {float(value[i])} exceeds "
                       f"{MAX_ENTRY:g} in magnitude")
    sums = P.sum(axis=3)
    for i, s, a in np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL):
        out.append(f"arm {i}: transition row ({s},{a}) sums to {sums[i, s, a]:.12g}")
    lo, hi = P.min(axis=(1, 2, 3)), P.max(axis=(1, 2, 3))
    for i in np.flatnonzero((lo < 0.0) | (hi > 1.0)):
        worst = lo[i] if lo[i] < 0 else hi[i]
        out.append(f"arm {i}: transition entry out of [0,1]: {worst:.12g}")
    lowest = cost.min(axis=(1, 2, 3))
    for i in np.flatnonzero(lowest < 0.0):
        out.append(f"arm {i}: negative cost entry {lowest[i]:.12g}")
    for i, k, s in np.argwhere(cost[:, :, :, 0] != 0.0):
        out.append(f"arm {i}: cost[{k}][{s}][0] = {cost[i, k, s, 0]:.12g}, "
                   "action 0 must be cost-free")
    return out


def distinct_arms(*tables: np.ndarray) -> tuple[tuple[np.ndarray, ...],
                                                np.ndarray]:
    """Map stacked per-arm tables to their distinct arms.

    Two arms are the same when every table holds the same bytes in their
    rows, so a one-ulp difference, or -0.0 against 0.0, keeps them apart.
    Returns the distinct tables, each holding one row per distinct arm in
    order of first occurrence, and inverse, the (N,) map from every arm to
    its distinct arm: distinct[t][inverse] equals tables[t] for every table.
    When every arm is distinct, the distinct tables are the input arrays
    themselves, not copies, and inverse is arange(N).

    Arms are indexed on the hash of their row bytes, and a hit is confirmed
    by comparing the bytes with those of the distinct arm's first
    occurrence, so no arm's bytes are kept past its own lookup.
    """
    index: dict[int, list[int]] = {}
    first = []
    inverse = np.empty(tables[0].shape[0], dtype=np.intp)
    for i in range(inverse.size):
        rows = tuple([t[i].tobytes() for t in tables])
        candidates = index.setdefault(hash(rows), [])
        for j in candidates:
            if rows == tuple([t[first[j]].tobytes() for t in tables]):
                break
        else:
            j = len(first)
            candidates.append(j)
            first.append(i)
        inverse[i] = j
    if len(first) == inverse.size:
        return tables, inverse
    first = np.array(first, dtype=np.intp)
    return tuple(t[first] for t in tables), inverse
