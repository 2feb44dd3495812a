"""Per-layer tracing from outside the package.

A ``Tracer`` swaps, for the length of a ``with`` block, each function a
module imports from the layer below for a wrapper that records one span:
name, start, end, parent span and run id, plus the FLOPs and bytes the
call's array shapes imply.  Spans stay in memory until ``write`` puts
them out as JSON lines.  Leaving the block restores every original, so an
untraced run executes the package's own functions.

Span names are the per-layer metric stems (``ops.Conv2.fwd``,
``network.forward``, ``data.extract_patch`` ...).  Convolutions take their
name from the ``spec.name`` argument; pools take ``PoolN`` from the block
whose main convolution is ``ConvN``, learned from the model each
``forward``/``backward`` call receives.

FLOP counts are computed, not measured: 2 per multiply-accumulate of the
convolution and classifier contractions (forward 2*M*K*O, backward
4*M*K*O for the weight and input gradients).  Bytes are the sizes of every
array a kernel call takes or returns.
"""

import json
import math
import time

import numpy as np

import specnet3d
from specnet3d import data, metrics, network, training

CONV_NAMES = network.CONV_LAYER_NAMES
OP_LAYERS = CONV_NAMES + ("Pool1", "Pool2", "FC")


def _nbytes(*objs):
    total = 0
    for obj in objs:
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            total += _nbytes(*obj)
    return total


def _conv_macs(x, spec):
    m = x.shape[0] * math.prod(spec.output_dims(x.shape[2:]))
    return m * spec.in_channels * math.prod(spec.kernel) * spec.out_channels


def _linear_macs(x, weights):
    n = x.shape[0] if x.ndim == 2 else 1
    return n * weights.shape[0] * weights.shape[1]


class Tracer:
    """Install with ``with Tracer(run_id) as tr:``; read ``tr.spans``."""

    def __init__(self, run_id):
        self.run_id = run_id
        # [name, start, end, parent index or None, flops, bytes]
        self.spans = []
        self._stack = []
        self._pool_names = {}
        self._saved = []

    # -- naming --------------------------------------------------------

    def _learn_pools(self, model):
        for block in model.blocks:
            if block.pool is not None:
                self._pool_names[id(block.pool)] = "Pool" + block.main.name[len("Conv"):]

    def _pool(self, spec, direction):
        return f"ops.{self._pool_names.get(id(spec), 'Pool?')}.{direction}"

    def _patch_table(self):
        """(owner, attribute, namer(args) -> span name, counter(args, kwargs,
        result) -> (flops, bytes) or None)."""

        def fixed(name):
            return lambda args: name

        def network_call(name):
            def namer(args):
                self._learn_pools(args[0])
                return name
            return namer

        def conv_fwd(args, kwargs, result):
            x, spec = args[0], args[1]
            return (2 * _conv_macs(x, spec),
                    _nbytes(x, spec.weights, spec.bias, result))

        def conv_bwd(args, kwargs, result):
            x, spec = args[0], args[1]
            return (4 * _conv_macs(x, spec),
                    _nbytes(x, spec.weights, args[2:], kwargs.get("cols"), result))

        def linear_fwd(args, kwargs, result):
            return 2 * _linear_macs(args[0], args[1]), _nbytes(args, result)

        def linear_bwd(args, kwargs, result):
            return 4 * _linear_macs(args[0], args[1]), _nbytes(args, result)

        def moved(args, kwargs, result):
            return 0, _nbytes(args, result)

        def pool_bwd_bytes(args, kwargs, result):
            return 0, _nbytes(args[2], result)

        # functions each module calls from the layer below, as bound there
        table = [
            (network, "_conv3d_forward_cols", lambda a: f"ops.{a[1].name}.fwd", conv_fwd),
            (network, "conv3d_backward", lambda a: f"ops.{a[1].name}.bwd", conv_bwd),
            (network, "avgpool3d_forward", lambda a: self._pool(a[1], "fwd"), moved),
            (network, "avgpool3d_backward", lambda a: self._pool(a[1], "bwd"), pool_bwd_bytes),
            (network, "relu", fixed("ops.relu.fwd"), moved),
            (network, "relu_backward", fixed("ops.relu.bwd"), moved),
            (network, "linear_forward", fixed("ops.FC.fwd"), linear_fwd),
            (network, "linear_backward", fixed("ops.FC.bwd"), linear_bwd),
            (training, "softmax_cross_entropy", fixed("ops.softmax_xent"), moved),
            (training, "forward", network_call("network.forward"), None),
            (training, "backward", network_call("network.backward"), None),
            (training, "save_checkpoint", fixed("network.save_checkpoint"), None),
            (training, "sgd_step", fixed("training.sgd_step"), None),
            (training, "extract_patch", fixed("data.extract_patch"), None),
            (training, "normalize", fixed("data.normalize"), None),
            (metrics.ConfusionMatrix, "add", fixed("metrics.confusion_add"), None),
        ]
        # the package-level names the workloads call, as the CLI does
        for attr, layer in (
            ("load_cube", "data"), ("save_cube", "data"),
            ("load_labels", "data"), ("save_labels", "data"),
            ("load_split", "data"), ("save_split", "data"),
            ("normalize", "data"), ("stratified_split", "data"),
            ("build_model", "network"), ("load_checkpoint", "network"),
            ("save_checkpoint", "network"),
            ("train", "training"), ("evaluate", "training"),
            ("predict_map", "training"),
            ("write_report", "metrics"), ("render_class_map", "metrics"),
        ):
            table.append((specnet3d, attr, fixed(f"{layer}.{attr}"), None))
        return table

    # -- install / remove ----------------------------------------------

    def _wrap(self, fn, namer, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [namer(args), 0.0, 0.0, stack[-1] if stack else None, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4], span[5] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = True
        return wrapper

    def __enter__(self):
        for owner, attr, namer, counter in self._patch_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, namer, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, flops, nbytes) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": name, "start": start,
                    "end": end, "parent": parent, "flops": flops, "bytes": nbytes,
                }) + "\n")

    def self_times(self):
        """Per-span duration minus the time its child spans cover."""
        self_t = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                self_t[parent] -= end - start
        return self_t

    def summary(self):
        """{span name: {calls, total_s, self_s, flops, bytes}}."""
        out = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, flops, nbytes = span
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "flops": 0, "bytes": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += self_s
            s["flops"] += flops
            s["bytes"] += nbytes
        return out

    def coverage(self, root_name):
        """Share of the ``root_name`` spans' wall time that named child
        spans account for (1 minus the root's own self time)."""
        total = self_root = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            if span[0] == root_name:
                total += span[2] - span[1]
                self_root += self_s
        return 1.0 - self_root / total if total else 0.0


def installed():
    """Names of package attributes that currently hold a tracing wrapper."""
    owners = (specnet3d, data, metrics, network, training, metrics.ConfusionMatrix)
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if getattr(value, "perfbench_span", False)
    )


# (metric, span name, statistic, scale, unit).  Statistics: "mean" is the
# span's total time per call, "self" its self time per call, "gflop_s" the
# computed FLOPs over the measured time, "calls_per_op" the call count per
# workload operation.
def _layer_metrics():
    rows = []
    for layer in OP_LAYERS:
        for d in ("fwd", "bwd"):
            rows.append((f"ops.{layer}.{d}_ms", f"ops.{layer}.{d}", "mean", 1e3, "ms"))
    for layer in CONV_NAMES:
        for d in ("fwd", "bwd"):
            rows.append((f"ops.{layer}.{d}_gflop_s", f"ops.{layer}.{d}", "gflop_s", 1.0,
                         "GFLOP/s"))
    rows += [
        ("ops.relu.fwd_ms", "ops.relu.fwd", "mean", 1e3, "ms"),
        ("ops.relu.bwd_ms", "ops.relu.bwd", "mean", 1e3, "ms"),
        ("ops.softmax_xent_ms", "ops.softmax_xent", "mean", 1e3, "ms"),
        ("network.forward_ms", "network.forward", "mean", 1e3, "ms"),
        ("network.forward_self_ms", "network.forward", "self", 1e3, "ms"),
        ("network.backward_ms", "network.backward", "mean", 1e3, "ms"),
        ("network.backward_self_ms", "network.backward", "self", 1e3, "ms"),
        ("network.save_checkpoint_ms", "network.save_checkpoint", "mean", 1e3, "ms"),
        ("network.load_checkpoint_ms", "network.load_checkpoint", "mean", 1e3, "ms"),
        ("training.sgd_step_ms", "training.sgd_step", "mean", 1e3, "ms"),
        ("training.evaluate_s", "training.evaluate", "mean", 1.0, "s"),
        ("training.predict_map_s", "training.predict_map", "mean", 1.0, "s"),
        ("data.extract_patch_us", "data.extract_patch", "mean", 1e6, "us"),
        ("data.extract_patch_calls", "data.extract_patch", "calls_per_op", 1.0, "count"),
        ("data.normalize_s", "data.normalize", "mean", 1.0, "s"),
        ("data.load_cube_s", "data.load_cube", "mean", 1.0, "s"),
        ("data.save_cube_s", "data.save_cube", "mean", 1.0, "s"),
        ("data.load_labels_ms", "data.load_labels", "mean", 1e3, "ms"),
        ("data.load_split_ms", "data.load_split", "mean", 1e3, "ms"),
        ("metrics.confusion_add_us", "metrics.confusion_add", "mean", 1e6, "us"),
        ("metrics.write_report_ms", "metrics.write_report", "mean", 1e3, "ms"),
        ("metrics.render_class_map_ms", "metrics.render_class_map", "mean", 1e3, "ms"),
    ]
    return rows


LAYER_METRICS = _layer_metrics()


def layer_metrics(summary, ops, pixels, overhead_pct):
    """Per-layer metric dict from a span summary of ``ops`` traced workload
    operations that processed ``pixels`` pixels (or training samples).

    A layer the workload never calls reads 0; the call counts in the span
    file say which layers ran.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flops": 0, "bytes": 0}
    out = {}
    for metric, span, stat, scale, unit in LAYER_METRICS:
        s = summary.get(span, empty)
        if s["calls"] == 0:
            value = 0.0
        elif stat == "mean":
            value = s["total_s"] / s["calls"] * scale
        elif stat == "self":
            value = s["self_s"] / s["calls"] * scale
        elif stat == "gflop_s":
            value = s["flops"] / s["total_s"] / 1e9
        else:  # calls_per_op
            value = s["calls"] / ops
        out[metric] = (value, unit)
    op_spans = [s for name, s in summary.items() if name.startswith("ops.")]
    flops = sum(s["flops"] for s in op_spans)
    nbytes = sum(s["bytes"] for s in op_spans)
    out["ops.flops_per_pixel"] = (flops / pixels if pixels else 0.0, "FLOP")
    out["ops.bytes_per_pixel"] = (nbytes / pixels if pixels else 0.0, "B")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def patch_flops_per_pixel(model):
    """Forward FLOPs of one 7x7xS patch, counted independently of any call
    from ``shape_trace`` dims and the model's kernel geometry."""
    dims = dict(network.shape_trace(model.config))
    total = 0
    for block in model.blocks:
        for spec in (block.main, block.proj):
            # a projection keeps its main convolution's output dims
            _, h, w, d = dims[block.main.name]
            total += 2 * h * w * d * spec.out_channels * spec.in_channels * math.prod(spec.kernel)
    total += 2 * dims["flatten"] * model.config.num_classes
    return total
