"""Bertsekas' auction algorithm for maximum-weight assignment.

Persons (rows) bid for objects (columns); prices rise until everyone
holds an object they (almost) maximally value.  With ε-scaling and
integer-scaled values the final assignment is exactly optimal when
``epsilon < 1/n`` times the value resolution.

Bidding is the classic sequential (Gauss-Seidel) auction: one
unassigned person bids per iteration and prices update immediately.
Rectangular inputs are padded with zero-weight dummy rows (see the
padding comment in :func:`auction_assignment`).

Tests cross-validate the result against the Hungarian algorithm and
the min-cost-flow solver on random instances.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.errors import ConvergenceError, ValidationError


def auction_assignment(
    weights: np.ndarray,
    epsilon_start: float | None = None,
    scaling: float = 4.0,
    max_rounds: int = 10_000_000,
    start_prices: np.ndarray | None = None,
    return_state: bool = False,
) -> tuple[list[int], float] | tuple[list[int], float, np.ndarray]:
    """Maximum-weight perfect assignment via ε-scaling auction.

    Parameters
    ----------
    weights:
        ``(n, m)`` value matrix with ``n <= m``; every row gets a
        distinct column.
    epsilon_start:
        Initial ε (defaults to ``max|w| / 2``).
    scaling:
        Factor by which ε shrinks between scaling phases.
    max_rounds:
        Bidding-iteration budget across all phases.
    start_prices:
        Optional length-``m`` initial object prices (a warm start from
        a previous, similar instance).  Any finite vector is *correct*
        — each ε-phase rebuilds the assignment from scratch and ends in
        ε-complementary slackness regardless of where prices began — so
        staleness costs only extra bidding rounds, never optimality.
    return_state:
        When true, additionally return the final price vector so
        callers can warm-start the next round.

    Returns
    -------
    (assignment, total) as in :func:`repro.matching.hungarian.hungarian`
    but maximizing; with ``return_state`` a third element carries the
    final length-``m`` prices.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValidationError(f"weights must be 2-D, got {weights.shape}")
    n, m = weights.shape
    if start_prices is None:
        initial_prices = np.zeros(m)
    else:
        initial_prices = np.asarray(start_prices, dtype=float).copy()
        if initial_prices.shape != (m,):
            raise ValidationError(
                f"start_prices must have shape ({m},), "
                f"got {initial_prices.shape}"
            )
        if not np.all(np.isfinite(initial_prices)):
            raise ValidationError("start_prices must be finite")
    if n == 0:
        if return_state:
            return [], 0.0, initial_prices
        return [], 0.0
    if n > m:
        raise ValidationError(f"need n_rows <= n_cols, got {n} x {m}")
    if not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite")

    span = float(np.abs(weights).max())
    if span <= 0.0:
        if return_state:
            return list(range(n)), 0.0, initial_prices
        return list(range(n)), 0.0
    if n < m:
        # Pad to a square problem with zero-weight dummy persons: the
        # epsilon-scaling optimality argument needs every object
        # assigned (otherwise prices raised in an early phase on an
        # object that ends up unassigned break epsilon-complementary
        # slackness).  Dummies absorb the leftover objects at weight 0,
        # so the square optimum restricted to the real rows is exactly
        # the rectangular optimum.
        padded = np.zeros((m, m))
        padded[:n] = weights
        try:
            # Columns (hence prices) are unchanged by row padding, so a
            # warm price vector threads straight through the recursion.
            square = auction_assignment(
                padded,
                epsilon_start,
                scaling,
                max_rounds,
                start_prices=start_prices,
                return_state=return_state,
            )
        except ConvergenceError as error:
            # Re-key the square problem's partial to the real rows so
            # callers can salvage it (dummy rows carry no value).
            if error.partial is not None:
                error.partial = [
                    (i, j) for i, j in error.partial if i < n
                ]
            raise
        assignment = square[0]
        real = assignment[:n]
        total = float(weights[np.arange(n), real].sum())
        if return_state:
            return real, total, square[2]
        return real, total
    # Optimality requires final epsilon < (min value gap)/n; for float
    # inputs we target a resolution proportional to the value span.
    epsilon_final = span * 1e-9 / max(n, 1) + 1e-12
    epsilon = epsilon_start if epsilon_start is not None else span / 2.0
    # A subnormal epsilon (possible when the value span itself is
    # subnormal) would add nothing to bids and deadlock the bidding
    # loop; never start below the final resolution.
    epsilon = max(epsilon, epsilon_final)

    prices = initial_prices
    owner = [-1] * m  # column -> row
    assigned = [-1] * n  # row -> column
    rounds = 0
    phases = 0

    while True:
        phases += 1
        # Reset assignment each ε-phase (prices persist: that is the
        # point of scaling — good prices transfer between phases).
        owner = [-1] * m
        assigned = [-1] * n
        unassigned = list(range(n))
        while unassigned:
            rounds += 1
            if rounds > max_rounds:
                # The phase's in-progress matching is feasible (each
                # person holds at most one object and vice versa), so
                # hand it to callers as a salvageable partial result.
                raise ConvergenceError(
                    f"auction exceeded {max_rounds} bidding rounds",
                    rounds,
                    partial=[
                        (i, j)
                        for i, j in enumerate(assigned)
                        if j != -1
                    ],
                )
            person = unassigned.pop()
            values = weights[person] - prices
            best = int(np.argmax(values))
            best_value = values[best]
            values[best] = -math.inf
            second_value = float(values.max()) if m > 1 else best_value - span
            bid = prices[best] + (best_value - second_value) + epsilon
            prices[best] = bid
            previous = owner[best]
            owner[best] = person
            assigned[person] = best
            if previous != -1:
                assigned[previous] = -1
                unassigned.append(previous)
        if epsilon <= epsilon_final:
            break
        epsilon = max(epsilon / scaling, epsilon_final)

    # Each bid updates exactly one price, so bids == price updates.
    obs.count("auction.bids", rounds)
    obs.count("auction.price_updates", rounds)
    obs.count("auction.phases", phases)
    total = float(weights[np.arange(n), np.asarray(assigned)].sum())
    if return_state:
        return assigned, total, prices
    return assigned, total
