"""In-memory span tracer that wraps kincal's public functions from outside.

Each entry of ``TARGETS`` names one layer and the function that is its
boundary.  While a ``Tracer`` is installed, every kincal module attribute
(or class attribute, for methods) that is bound to the target function is
replaced by a wrapper that records a span ``(name, start, end, parent)``
and, optionally, counters taken from the call's arguments and result.
Callers such as ``kincal.optimizer`` that import a function by name are
wrapped at their own binding, so no call path is missed.

A layer's self time is its span duration minus the durations of its
direct child spans.  A target that no longer exists is reported as
absent; the tracer never fails the run for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _len_result(args, kwargs, result):
    return len(result)


def _dataset_dir_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def _kept_over_valid(args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    return {"kept": len(result), "valid_cells": int(cloud.valid.sum())}


def _frame_count(args, kwargs, result):
    return int(result.frame_joints.shape[0])


def _accepted_steps(args, kwargs, result):
    return len(result.accepted_costs) - 1


def _outer_iterations(args, kwargs, result):
    return len(result.iterations)


# layer name, module, attribute ("Class.method" for methods), counter hook,
# reported per-operation figures: "calls", and self seconds as "s" or
# "self_s".  A hook returns a number (summed under the layer name) or a
# dict of counter name -> number.
TARGETS = (
    ("cli.main", "kincal.cli", "main", None, ("self_s",)),
    ("optimizer.calibrate", "kincal.optimizer", "calibrate",
     _outer_iterations, ("self_s",)),
    ("optimizer.lm_minimize", "kincal.optimizer", "lm_minimize",
     _accepted_steps, ("self_s",)),
    ("optimizer.jacobian", "kincal.optimizer", "CorrespondenceSet.jacobian",
     None, ("calls", "s")),
    ("optimizer.residuals", "kincal.optimizer", "CorrespondenceSet.residuals",
     None, ("calls", "s")),
    ("optimizer.build_correspondences", "kincal.optimizer",
     "build_correspondences", _frame_count, ("s",)),
    ("matching.match_all", "kincal.matching", "match_all", _len_result,
     ("calls", "s")),
    ("matching.validate_matches", "kincal.matching", "validate_matches",
     _len_result, ("s",)),
    ("geomfilter.filter_cloud", "kincal.geomfilter", "filter_cloud",
     _kept_over_valid, ("calls", "s")),
    ("dataset.project_to_base", "kincal.dataset", "project_to_base", None,
     ("calls", "s")),
    ("dataset.save_dataset", "kincal.dataset", "save_dataset",
     _dataset_dir_bytes, ("s",)),
    ("dataset.load_dataset", "kincal.dataset", "load_dataset", None, ("s",)),
    ("kincore.forward_kinematics", "kincal.kincore", "forward_kinematics",
     None, ("calls", "s")),
    ("kincore.transform_and_derivatives", "kincal.kincore",
     "transform_and_derivatives", None, ("calls", "s")),
    ("simulator.simulate_dataset", "kincal.simulator", "simulate_dataset",
     None, ("s",)),
    ("simulator.raycast_batch", "kincal.simulator", "raycast_batch",
     _len_result, ("s",)),
    ("ply.write_ply", "kincal.ply", "write_ply", None, ("s",)),
)


def layer_metrics(tracer, ops):
    """Per-layer figures of a traced run, each per operation unless it is
    a ratio; a layer that was absent or never called reads 0.

    Returns name -> (value, unit).
    """
    totals = tracer.layer_totals()
    counters = tracer.counters

    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, _, _, _, reported in TARGETS:
        count, _, self_s = totals.get(layer, (0, 0.0, 0.0))
        for field in reported:
            if field == "calls":
                out[f"{layer}.calls"] = (count / ops, "count")
            else:
                out[f"{layer}.{field}"] = (self_s / ops, "s")
    outer = counters["optimizer.calibrate"]
    calibrate_s = totals.get("optimizer.calibrate", (0, 0.0, 0.0))[1]
    candidates = counters["matching.match_all"]
    out.update({
        "optimizer.outer_iterations":
            (ratio(outer, calls("optimizer.calibrate")), "count"),
        "optimizer.lm_accept_ratio":
            (ratio(counters["optimizer.lm_minimize"],
                   calls("optimizer.residuals")), "frac"),
        "optimizer.s_per_outer_iter": (ratio(calibrate_s, outer), "s"),
        "optimizer.frames":
            (ratio(counters["optimizer.build_correspondences"],
                   calls("optimizer.build_correspondences")), "count"),
        "matching.candidates":
            (ratio(candidates, calls("matching.match_all")), "count"),
        "matching.validated_frac":
            (ratio(counters["matching.validate_matches"], candidates), "frac"),
        "geomfilter.kept_frac":
            (ratio(counters["geomfilter.filter_cloud.kept"],
                   counters["geomfilter.filter_cloud.valid_cells"]), "frac"),
        "simulator.rays": (counters["simulator.raycast_batch"] / ops, "count"),
        "dataset.bytes": (counters["dataset.save_dataset"] / ops, "B"),
    })
    return out


def _resolve(module_name, attribute):
    """(owner, name, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, name, None)
    return None if function is None else (owner, name, function)


class Tracer:
    """Records spans and counters while installed.

    Use as a context manager: entering patches every binding of every
    target, leaving restores each patched attribute to its original.
    Spans and counters accumulate over repeated installs.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []          # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    def __enter__(self):
        self.absent = []
        try:
            for layer, module_name, attribute, hook, _ in self.targets:
                found = _resolve(module_name, attribute)
                if found is None:
                    self.absent.append(layer)
                    continue
                owner, name, function = found
                wrapper = self._wrap(layer, function, hook)
                if "." in attribute:
                    self._patch(owner, name, wrapper)
                else:
                    for module in _kincal_modules():
                        for key, value in list(vars(module).items()):
                            if value is function:
                                self._patch(module, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer, function, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                counted = hook(args, kwargs, result)
                if isinstance(counted, dict):
                    for key, value in counted.items():
                        counters[f"{layer}.{key}"] += value
                else:
                    counters[layer] += counted
            return result

        return wrapper

    def layer_totals(self):
        """layer -> (calls, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[k]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path, header):
        """One JSON header line, then one ``[name, start, end, parent]``
        line per span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _kincal_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "kincal" or name.startswith("kincal."))]
