#!/usr/bin/env python3
"""Identifiability sanity experiment: refit a frozen random energy network.

Noiseless trajectories are simulated from a randomly initialized model field
under multisine forcing, then a fresh network of the same architecture is
trained on them with the simulation-error objective. With no noise and a
realizable target, the full-horizon simulation loss of the returned model, on
the training and on the validation trajectories, should fall by at least two
orders of magnitude from the untrained student's. The teacher scores exactly
zero, but no absolute level is expected: the Adam loop of `fit` plateaus well
above it.

    python scripts/self_consistency.py --n-hidden 16 --epochs 4000
"""

import argparse
import time

import numpy as np

from oehnn.data import Dataset, GenerationProtocol, Trajectory
from oehnn.dynamics import duffing_system, structure_matrices
from oehnn.integrate import rollout
from oehnn.netmodel import flatten_params, init_hamiltonian_net, oe_hnn_field, with_params
from oehnn.signals import MultisineSpec, NoiseSpec, multisine_value, sample_phases
from oehnn.train import TrainConfig, fit, simulation_loss


def teacher_dataset(n_hidden, n_train, n_val, n_samples, ts, seed):
    rng = np.random.default_rng(seed)
    system = duffing_system()
    S = structure_matrices(system)
    teacher = init_hamiltonian_net(2, n_hidden, rng)
    teacher = with_params(teacher, rng.uniform(-0.5, 0.5, flatten_params(teacher).size))
    field = lambda x, u: oe_hnn_field(teacher, S, x, u)

    trajs = []
    for _ in range(n_train + n_val):
        spec = MultisineSpec(20, 0.1, sample_phases(20, rng), amplitude=0.5)
        t = np.arange(n_samples) * ts
        u = multisine_value(t, spec)[:, None]
        x0 = rng.uniform(-0.3, 0.3, 2)
        states = rollout(field, x0, u, ts)
        trajs.append(Trajectory(t=t, u=u, y=states, x_true=states))
    protocol = GenerationProtocol(
        n_realizations=n_train + n_val,
        n_samples=n_samples,
        ts=ts,
        t_start=0.0,
        split=(n_train, n_val, 0),
        amplitude=0.5,  # the teacher's multisine amplitude
    )
    dataset = Dataset(
        train=trajs[:n_train],
        validation=trajs[n_train:],
        test=[],
        system=system,
        protocol=protocol,
        noise=NoiseSpec(variance=0.0),
        master_seed=seed,
    )
    return teacher, dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-hidden", type=int, default=16)
    parser.add_argument("--n-train", type=int, default=4)
    parser.add_argument("--n-samples", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=4000)
    parser.add_argument("--teacher-seed", type=int, default=0)
    parser.add_argument("--student-seed", type=int, default=1)
    args = parser.parse_args()

    _, dataset = teacher_dataset(
        args.n_hidden, args.n_train, 1, args.n_samples, 0.01, args.teacher_seed
    )
    S = structure_matrices(dataset.system)
    untrained = init_hamiltonian_net(2, args.n_hidden, np.random.default_rng(args.student_seed))
    t0 = time.perf_counter()
    warm = fit(
        "oe-hnn",
        dataset,
        TrainConfig(
            n_hidden=args.n_hidden,
            seed=args.student_seed,
            learning_rate=5e-3,
            chunk_length=20,
            max_epochs=args.epochs // 2,
            patience=args.epochs // 2,
        ),
    )
    final = fit(
        "oe-hnn",
        dataset,
        TrainConfig(
            n_hidden=args.n_hidden,
            seed=args.student_seed,
            learning_rate=1e-3,
            max_epochs=args.epochs // 2,
            patience=args.epochs // 2,
        ),
        initial_model=warm.model,
    )
    elapsed = time.perf_counter() - t0

    def loss(model, trajs):
        return sum(simulation_loss(model, S, tr) for tr in trajs)

    train_0, train_end = loss(untrained, dataset.train), loss(final.model, dataset.train)
    val_0, val_end = loss(untrained, dataset.validation), loss(final.model, dataset.validation)
    print(
        f"refit in {elapsed:.0f}s (best epoch {warm.best_epoch} chunked, "
        f"{final.best_epoch} full); full-horizon simulation loss, untrained -> returned model"
    )
    print(
        f"  initial train loss {train_0:.3e} -> final train loss {train_end:.3e} "
        f"({train_0 / train_end:.0f}x)"
    )
    print(
        f"  initial validation loss {val_0:.3e} -> final validation loss {val_end:.3e} "
        f"({val_0 / val_end:.0f}x)"
    )


if __name__ == "__main__":
    main()
