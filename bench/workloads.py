"""The four benchmark workloads: a job corpus, one job's engine calls, oracles.

Each workload has a fixed corpus of items, drawn once from a constant
seed, the way a verification batch is a committed list of cases, and cut
into fixed chunks, one per cold batch (one fresh interpreter, as one
`skeinlab` invocation).  A pass runs every chunk once.  The run seed sets
the order in which chunks and items are submitted in each pass:
`batch_jobs(workload, seed, index)` gives batch `index` of the sequence
of passes.  Runs with different seeds therefore do the same total work,
and differ in which job pays for filling a cache; the job sizes vary too
much for a corpus that changed with the seed to give steady figures in a
run of seconds.

`run(job, memo)` makes the engine calls of one job and is what the
benchmark times; `check(job, result, memo)` returns None when the result
passes the workload's oracle and a one-line reason otherwise.  `memo` is a
per-batch dict through which a later job reuses an earlier job's result
(the classical Hom basis, the classical product of a pair).

Only public names of `skeinlab` are used, and engine functions are called
through their module (`skein_algebra.mu`), so that the tracer's rebinding
of a module attribute reaches the benchmark's own calls as well.
"""

from __future__ import annotations

import itertools
import random

from skeinlab import poisson, skein_algebra, suites
from skeinlab.ribbon_backend import UNIT, DualObj, make_backend, simple, tensor_word
from skeinlab.surface import annulus, once_punctured_torus

V = simple(1)
V_DUAL = DualObj(V)
ADJ = simple(2)

# truncation order of the hbar backends in every workload
HBAR_ORDER = 3
BACKENDS = (("classical", 1), ("epsilon", 2), ("quantum", HBAR_ORDER), ("drinfeld", HBAR_ORDER))


def _rng(*parts):
    # a str seed is hashed with sha512, so it does not depend on PYTHONHASHSEED
    return random.Random("/".join(str(p) for p in parts))


def _backend(name):
    return make_backend(name, dict(BACKENDS)[name])


def _holonomy_multiplicative(a, b, product):
    """h(mu(a, b)) == h(a) h(b) on unit arguments (one matrix coefficient each)."""
    h = skein_algebra.holonomy_evaluate
    return h(product)[0] == h(a)[0] * h(b)[0]


def _chunks(workload):
    items = workload.corpus()
    size = workload.batch_size
    return [items[i : i + size] for i in range(0, len(items), size)]


def batches_per_pass(workload):
    return len(_chunks(workload))


def min_passes(workload):
    """Passes a run makes whatever its length; more only as time allows."""
    return getattr(workload, "min_passes", 1)


def batch_jobs(workload, seed, index):
    """The jobs of batch `index` of the seeded sequence of passes over the corpus.

    The corpus is cut into fixed chunks, one per cold batch, so every pass
    fills the same caches.  The seed orders the chunks of each pass and the
    items of each batch afresh, so that a run of several passes averages
    over which job pays for filling a cache.
    """
    chunks = _chunks(workload)
    n = len(chunks)
    order = list(range(n))
    _rng(workload.name, seed, "pass", index // n).shuffle(order)
    items = list(chunks[order[index % n]])
    rng = _rng(workload.name, seed, "batch", index)
    rng.shuffle(items)
    return [job for item in items for job in workload.expand(item, rng)]


# ---------------------------------------------------------------------------
# tangles: move invariance over the quantum and Drinfeld backends
# ---------------------------------------------------------------------------


class Tangles:
    """One job is one `moves_suite` case set: a random word per move kind."""

    name = "tangles"
    batch_size = 14
    # the slowest tenth of the jobs are a few heavy Drinfeld case sets whose
    # cost depends on what the batch has cached before them; a second pass,
    # in another order, halves the seed-to-seed variance of job_p90_ref_ms
    min_passes = 2
    backends = ("quantum", "drinfeld")

    def setup(self):
        for b in self.backends:
            _backend(b)

    def corpus(self):
        rng = _rng(self.name, "corpus")
        # one quantum case set to two Drinfeld ones: the two backends' job
        # times form two clusters, and an even mix puts the median between them
        return [(self.backends[min(i % 3, 1)], rng.randrange(2**31)) for i in range(42)]

    def expand(self, item, rng):
        return [item]

    def run(self, job, memo):
        backend, case_seed = job
        return suites.moves_suite(backend, HBAR_ORDER, case_seed, words_per_kind=1)

    def check(self, job, cases, memo):
        if not cases:
            return "no move site found"
        bad = [c["id"] for c in cases if not c["ok"]]
        return f"rt_evaluate differs across moves {bad}" if bad else None


# ---------------------------------------------------------------------------
# products: products and the three sigma routes on small boundary words
# ---------------------------------------------------------------------------


class Products:
    """One job is one random classical pair on the annulus or the torus."""

    name = "products"
    batch_size = 21
    surfaces = (("annulus", annulus, (0, 1, 2)), ("torus", once_punctured_torus, (0, 1)))

    def setup(self):
        _backend("classical")
        _backend("epsilon")

    def corpus(self):
        rng = _rng(self.name, "corpus")
        # one annulus pair to two torus pairs: the two surfaces' job times form
        # two clusters, and an even mix puts the median between them
        return [(min(i % 3, 1), rng.randrange(2**31)) for i in range(63)]

    def expand(self, item, rng):
        return [item]

    def run(self, job, memo):
        surface, pair_seed = job
        _, pattern, pool = self.surfaces[surface]
        cl, ep = _backend("classical"), _backend("epsilon")
        rng = random.Random(pair_seed)
        pat = pattern()
        a = skein_algebra.random_element(cl, pat, rng, label_pool=pool)
        b = skein_algebra.random_element(cl, pat, rng, label_pool=pool)
        lift = skein_algebra.lift_element
        return {
            "a": a,
            "b": b,
            "product": skein_algebra.mu(a, b),
            "goldman": poisson.sigma_goldman(a, b),
            "algebraic": poisson.sigma_algebraic(lift(a, ep), lift(b, ep)),
            "fock_rosly": poisson.fock_rosly_consistency(a, b),
        }

    def check(self, job, r, memo):
        if not _holonomy_multiplicative(r["a"], r["b"], r["product"]):
            return "holonomy of the product is not the product of holonomies"
        if not r["goldman"].equal(r["algebraic"]):
            return "sigma_goldman differs from sigma_algebraic"
        if not r["fock_rosly"]:
            return "Fock-Rosly vertex sum is inconsistent with sigma_algebraic"
        return None


# ---------------------------------------------------------------------------
# homs: cold invariant Hom-space solving
# ---------------------------------------------------------------------------


def _spin_multiplicities(word):
    """{spin k: multiplicity of V_k in word}, from the spins of its leaves alone.

    The weight multiset of V_n is n, n-2, ..., -n, and a dual has the same
    weights; the tensor product convolves them, and V_k occurs as often as
    weight k exceeds weight k + 2.
    """
    weights = {0: 1}
    for leaf in word.leaves():
        n = leaf.inner.spin if isinstance(leaf, DualObj) else leaf.spin
        step = {}
        for w, c in weights.items():
            for x in range(-n, n + 1, 2):
                step[w + x] = step.get(w + x, 0) + c
        weights = step
    mult = {k: weights[k] - weights.get(k + 2, 0) for k in weights if k >= 0}
    return {k: m for k, m in mult.items() if m}


def expected_hom_dim(source, target):
    """dim Hom(X, Y) = sum_k m_X(k) m_Y(k) (Schur's lemma)."""
    mx, my = _spin_multiplicities(source), _spin_multiplicities(target)
    return sum(m * my.get(k, 0) for k, m in mx.items())


class Homs:
    """One job is one invariant Hom space on one backend; a batch solves each once."""

    name = "homs"
    batch_size = 50
    # the median job lies where cost rises steeply with rank, so it moves
    # with single jobs; a second pass steadies job_p50_ref_ms
    min_passes = 2

    def setup(self):
        for b, _ in BACKENDS:
            _backend(b)

    def corpus(self):
        """50 distinct (source, target) spaces, each solved on all four backends."""
        spaces = []
        for w in itertools.product((V, V_DUAL), repeat=3):
            spaces.append((tensor_word(w), tensor_word(w)))
        for w in itertools.product((V, V_DUAL, ADJ), repeat=2):
            spaces.append((tensor_word(w), tensor_word(w)))
        for w in itertools.product((V, V_DUAL), repeat=4):
            spaces.append((UNIT, tensor_word(w)))
        for w in itertools.product((V, ADJ), repeat=4):
            spaces.append((UNIT, tensor_word(w)))
        for w in ((V, V, ADJ), (V_DUAL, V, ADJ)):
            spaces.append((tensor_word(w), tensor_word(w)))
        # Hom(1, V V V V) is in both 4-letter families
        return list(dict.fromkeys(spaces))

    def expand(self, space, rng):
        # classical first: the deformed jobs' oracle reuses its basis
        deformed = [b for b, _ in BACKENDS[1:]]
        rng.shuffle(deformed)
        return [(b, space) for b in ["classical"] + deformed]

    def run(self, job, memo):
        backend, (source, target) = job
        basis = _backend(backend).invariant_hom_basis(source, target)
        if backend == "classical":
            memo[(source, target)] = basis
        return basis

    def check(self, job, basis, memo):
        backend, (source, target) = job
        want = expected_hom_dim(source, target)
        if len(basis) != want:
            return f"dim Hom({source}, {target}) = {len(basis)}, characters give {want}"
        if backend != "classical" and [b.part0() for b in basis] != memo[(source, target)]:
            return f"part0 of the {backend} basis of Hom({source}, {target}) is not the classical one"
        return None


# ---------------------------------------------------------------------------
# reach: the largest products the engine finishes in seconds
# ---------------------------------------------------------------------------


class Reach:
    """One batch is one torus pair labelled adj: classical, epsilon and quantum `mu`."""

    name = "reach"
    batch_size = 1
    chain = ("classical", "epsilon", "quantum")

    def setup(self):
        for b in self.chain:
            _backend(b)

    def corpus(self):
        rng = _rng(self.name, "corpus")
        return [rng.randrange(2**31)]

    def expand(self, pair_seed, rng):
        return [(b, pair_seed) for b in self.chain]

    def run(self, job, memo):
        backend, pair_seed = job
        if backend == "classical":
            cl = _backend("classical")
            rng = random.Random(pair_seed)
            pat = once_punctured_torus()
            a = skein_algebra.random_element(cl, pat, rng, label_pool=(2,))
            b = skein_algebra.random_element(cl, pat, rng, label_pool=(2,))
            memo["pair"] = (a, b)
            memo["classical"] = skein_algebra.mu(a, b)
            return memo["classical"]
        a, b = memo["pair"]
        bk = _backend(backend)
        lift = skein_algebra.lift_element
        return skein_algebra.mu(lift(a, bk), lift(b, bk))

    def check(self, job, product, memo):
        backend, _ = job
        if backend == "classical":
            a, b = memo["pair"]
            if not _holonomy_multiplicative(a, b, product):
                return "holonomy of the product is not the product of holonomies"
        elif not product.part0().equal(memo["classical"]):
            return f"part0 of the {backend} product is not the classical product"
        return None


WORKLOADS = {w.name: w for w in (Tangles(), Products(), Homs(), Reach())}
