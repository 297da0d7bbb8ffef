"""Paired in-process A/B of a perfbench workload's pretraining step, training iteration and eval pair of two trees.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --seed 1 --workload train_ctx_frozen

PARENT_SRC and CHANGE_SRC are directories holding a ``dpl`` package (a
checkout's ``src``). Each tree's package is imported under its own name,
``dpl_a`` and ``dpl_b``, into this one process, so both run on the same
box at the same moments. Three phases run in turn; in each, the two trees
run in two threads that take strict turns, never both at once: after a
warm-up turn each, each round runs one turn of each tree, A first in even
rounds and B first in odd ones. A round's sample is B's turn time over A's.

The recipe is the perfbench workload named by ``--workload`` (default
``pipeline_fs``), read from ``perfbench/workload.py`` (its ``WORKLOADS``
entry, ``SIZE``, ``TRAIN_COUNT``, ``VAL_COUNT``, ``PRETRAIN_SAMPLES``,
``HOLDOUT`` and ``LR_GENERATOR``), so the two harnesses run the same thing.
At the time of writing both train on ``darken`` pairs at 32 px:
``pipeline_fs`` in feature_selection mode with task_oriented triplets under
color_jitter and the perceptual loss alone, ``train_ctx_frozen`` in frozen
mode with the perceptual and contextual losses. The pretraining phase is the
same for both.

First each tree runs its own ``pretrain_psi`` with its own ψ and Adam over
the same workload's texture samples (the default learning rate), for 5
epochs with the held-out gate out of reach. A turn is a tenth of an epoch
of optimizer steps, so each tree's held-out accuracy falls in the same
round's turn; 49 rounds. The phase ends by saying whether the two ψs'
weights are bitwise equal.

Then each tree trains the recipe with its own ``run_training`` on the
workload's training pairs, drawn as ``dpl gen-data`` draws them and
quantized to 8 bits as its PPMs are, with an
extractor it pretrains on the workload's texture samples first (so both
trees are warmed up alike: a tree that pretrained and one that did not
differ by a few percent). Each of 30 rounds runs one turn of 10 iterations
of each tree.

Then each tree scores the same validation pairs, as many as the workload
scores (drawn as ``dpl gen-data`` draws them and quantized to 8 bits as its
PPMs are), with its own trained generator and extractor, as
``cli._evaluate`` does: decode the pair, run the generator, then psnr,
ms_ssim and dfd. Each of 20 rounds runs one turn of all the pairs of each
tree.

Prints, for each phase, each tree's median ms per pretraining step,
iteration or eval pair, the median ratio B/A with a bootstrap 95%
interval of that median (2000 resamples), and the number of rounds B was
faster. A ratio below 1 means B is faster; an interval that excludes 1
resolves the difference. Running one tree against itself (the same path
twice) is the A/A check of the method. BLAS is pinned to one thread, as
perfbench pins it, and glibc's malloc to one arena for both trees' threads
(see below). Only the standard library and numpy are used.

It times and nothing else. An in-process A/B cannot show memory: both trees
allocate from one heap, so peak RSS and page faults belong to neither tree,
and a tree's allocations land where the other's left room. A change to how
memory is allocated needs fresh-process runs, such as perfbench's.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# glibc gives each thread that allocates its own malloc arena, and the tree
# whose thread ran first trained ~10% slower in its arena: an A/A read B/A at
# 0.87-0.90 in training whatever order the trees were built and their threads
# started in, and 1.13 with the order of their turns swapped. With one arena
# both trees' threads allocate from the main heap, as the CLI does. glibc reads
# MALLOC_ARENA_MAX once, at start-up, so the script starts itself again with it.
if os.environ.get("MALLOC_ARENA_MAX") != "1":
    os.environ["MALLOC_ARENA_MAX"] = "1"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import functools
import importlib
import importlib.util
import statistics
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workload  # perfbench's recipes, read only

PRETRAIN_EPOCHS = 5
PRETRAIN_TURN = (workload.PRETRAIN_SAMPLES - workload.HOLDOUT) // 10
PRETRAIN_ROUNDS = PRETRAIN_EPOCHS * 10 - 1  # with the warm-up, every step of every epoch
ROUNDS, TURN = 30, 10
EVAL_ROUNDS = 20


def recipe(work) -> dict[str, str]:
    """The config overrides of a perfbench workload's ``dpl train``."""
    return {"task": work.task, "size": str(workload.SIZE),
            "train_count": str(workload.TRAIN_COUNT),
            "pretrain.samples": str(workload.PRETRAIN_SAMPLES), "dpl.mode": work.mode,
            "dpl.lr_generator": workload.LR_GENERATOR,
            **{flag.removeprefix("--"): value
               for flag, value in zip(work.train_flags[::2], work.train_flags[1::2])}}


def load_tree(src: Path, name: str):
    """The ``dpl`` package under ``src``, imported as ``name`` with the
    submodules this script uses."""
    package = src / "dpl"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("config", "image", "metrics", "networks", "optim", "rng", "synth", "trainer"):
        importlib.import_module(f"{name}.{sub}")
    return module


class Turns:
    """A thread's work, paused by a call of ``pause`` at the end of every turn
    of ``turn`` units (pretraining steps or iterations)."""

    def __init__(self, turn: int, target, args):
        self.error: BaseException | None = None
        self.turn = turn
        self._go, self._paused = threading.Semaphore(0), threading.Semaphore(0)
        self._thread = threading.Thread(target=self._run, args=(target, args), daemon=True)
        self._thread.start()

    def _run(self, target, args) -> None:
        self._go.acquire()
        try:
            target(*args)
        except Exception as e:  # raised again by run_turn in the main thread
            self.error = e
        finally:
            self._paused.release()

    def pause(self) -> None:
        self._paused.release()
        self._go.acquire()

    def run_turn(self) -> float:
        """Ms per unit over one turn."""
        start = time.perf_counter()
        self._go.release()
        self._paused.acquire()
        if self.error is not None:
            raise RuntimeError(f"{self.__class__.__name__} failed: {self.error!r}") from self.error
        return (time.perf_counter() - start) * 1000.0 / self.turn

    def finish(self) -> None:
        self._go.release()
        self._thread.join()


class Pretrainer(Turns):
    """One tree's ``pretrain_psi`` of a fresh ψ on the given textures, paused
    after every turn of Adam steps."""

    def __init__(self, dpl, seed: int, textures):
        networks = dpl.networks
        self._restore = networks.Adam, networks.PRETRAIN_GATE
        self.steps = 0
        pretrainer = self

        class TurnAdam(dpl.optim.Adam):
            def step(self) -> None:
                super().step()
                pretrainer.steps += 1
                if pretrainer.steps % PRETRAIN_TURN == 0:
                    pretrainer.pause()

        networks.Adam, networks.PRETRAIN_GATE = TurnAdam, 2.0  # no accuracy reaches 2
        rng = dpl.rng.Rng(seed)
        self.networks, self.psi = networks, networks.FeatureNetPsi(rng.child(31))
        samples = [(dpl.image.to_tensor(x), y) for x, y in textures]
        pretrain = functools.partial(networks.pretrain_psi,
                                     lr=dpl.config.SCHEMA["pretrain.lr"].default)
        super().__init__(PRETRAIN_TURN, pretrain,
                         (self.psi, samples, PRETRAIN_EPOCHS, rng.child(32)))

    def finish(self) -> None:
        super().finish()
        self.networks.Adam, self.networks.PRETRAIN_GATE = self._restore


class Trainer(Turns):
    """One tree's training run in its own thread, paused after every turn."""

    def __init__(self, dpl, seed: int, work):
        config = dpl.config.parse_config(
            overrides={**recipe(work), "seed": str(seed),
                       "dpl.iterations": str((ROUNDS + 1) * TURN)})
        rng = dpl.rng.Rng(seed)
        # drawn as ``dpl gen-data`` draws them and read back as ``dpl train`` reads its PPMs
        pairs = [tuple(map(dpl.image.decode_ppm, pair)) for pair in payloads(
            dpl.synth.generate_synthetic(config["task"], config["train_count"],
                                         config["size"], rng.child(10)))]
        psi = dpl.networks.FeatureNetPsi(rng.child(31))
        textures = dpl.synth.generate_synthetic("textures", config["pretrain.samples"],
                                                config["size"], rng.child(30))
        dpl.networks.pretrain_psi(psi, [(dpl.image.to_tensor(x), y) for x, y in textures],
                                  config["pretrain.epochs"], rng.child(32), lr=config["pretrain.lr"])
        f, phi = dpl.networks.GeneratorF(rng.child(40)), dpl.networks.SelectionPhi(rng.child(41))
        self.dpl, self.f, self.psi = dpl, f, psi
        args = (config, pairs, f, psi, phi, rng.child(42))
        super().__init__(TURN, dpl.trainer.run_training, args + (self._hook,))

    def _hook(self, it, *_) -> None:
        if (it + 1) % TURN == 0:
            self.pause()

    def run_eval_turn(self, payloads) -> float:
        """Ms per pair to score every pair with the trained networks."""
        image, metrics = self.dpl.image, self.dpl.metrics
        start = time.perf_counter()
        for x_payload, y_payload in payloads:
            x, y = image.decode_ppm(x_payload), image.decode_ppm(y_payload)
            x_gen = image.from_tensor(self.f(image.to_tensor(x)).detach())
            metrics.psnr(x_gen, y), metrics.ms_ssim(x_gen, y)
            metrics.feature_distance(x_gen, y, self.psi)
        return (time.perf_counter() - start) * 1000.0 / len(payloads)


def payloads(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each pair's images, (H, W, 3) float64 arrays, quantized to the 8-bit
    payloads of the PPMs ``dpl gen-data`` writes (a drawn image is already in
    [0, 1])."""
    return [tuple(np.round(image * 255.0).astype(np.uint8) for image in pair)
            for pair in pairs]


def alternate(rounds: int, a, b) -> dict[str, list[float]]:
    """One warm-up call of ``a`` and ``b``, then ``rounds`` rounds of one
    call each, A first in even rounds; the times of the rounds."""
    a(), b()
    times = {"a": [], "b": []}
    for k in range(rounds):
        order = (("a", a), ("b", b)) if k % 2 == 0 else (("b", b), ("a", a))
        for key, turn in order:
            times[key].append(turn())
    return times


def report(what: str, args, times: dict[str, list[float]]) -> None:
    ratios = np.array(times["b"]) / np.array(times["a"])
    draws = np.random.default_rng(0).choice(ratios, size=(2000, len(ratios)))
    low, high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    print(f"A {args.parent_src}: median {statistics.median(times['a']):.3f} ms/{what}")
    print(f"B {args.change_src}: median {statistics.median(times['b']):.3f} ms/{what}")
    print(f"ratio B/A: median {np.median(ratios):.3f}, 95% interval [{low:.3f}, {high:.3f}], "
          f"B faster in {int((ratios < 1).sum())} of {len(ratios)} rounds")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="directory holding tree A's dpl package")
    parser.add_argument("change_src", type=Path, help="directory holding tree B's dpl package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(workload.WORKLOADS), default="pipeline_fs",
                        help="the perfbench workload whose recipe both trees run")
    args = parser.parse_args()
    work = workload.WORKLOADS[args.workload]

    trees = [load_tree(src.resolve(), name)
             for src, name in ((args.parent_src, "dpl_a"), (args.change_src, "dpl_b"))]
    textures = list(trees[0].synth.generate_synthetic(
        "textures", workload.PRETRAIN_SAMPLES, workload.SIZE,
        trees[0].rng.Rng(args.seed).child(30)))
    a, b = (Pretrainer(dpl, args.seed, textures) for dpl in trees)
    pretrain_times = alternate(PRETRAIN_ROUNDS, a.run_turn, b.run_turn)
    a.finish(), b.finish()
    same = all(p.data.tobytes() == q.data.tobytes()
               for p, q in zip(a.psi.params(), b.psi.params()))

    a, b = (Trainer(dpl, args.seed, work) for dpl in trees)
    train_times = alternate(ROUNDS, a.run_turn, b.run_turn)
    a.finish(), b.finish()

    val = trees[0].synth.generate_synthetic(work.task, workload.VAL_COUNT, workload.SIZE,
                                            trees[0].rng.Rng(args.seed).child(20))
    val_payloads = payloads(val)
    eval_times = alternate(EVAL_ROUNDS, lambda: a.run_eval_turn(val_payloads),
                           lambda: b.run_eval_turn(val_payloads))

    print(f"{PRETRAIN_ROUNDS} rounds of {PRETRAIN_TURN} pretraining steps per tree, "
          f"seed {args.seed}; psi weights after {PRETRAIN_EPOCHS} epochs bitwise "
          f"{'equal' if same else 'different'}")
    report("pretraining step", args, pretrain_times)
    print(f"{ROUNDS} rounds of {TURN} {args.workload} iterations per tree, seed {args.seed}")
    report("iteration", args, train_times)
    print(f"{EVAL_ROUNDS} rounds of {workload.VAL_COUNT} eval pairs per tree")
    report("eval pair", args, eval_times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
