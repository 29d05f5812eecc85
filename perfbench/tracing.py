"""In-memory span tracer that wraps dynaprompt's layer entry points.

The tracer never edits the package. ``Tracer.install`` replaces each entry
point with a timing wrapper at the name its caller looks it up by (a
module attribute or a class attribute, since ``from .x import f`` binds at
import time), and ``Tracer.uninstall`` puts every original back.

A span records its name, start, end, parent span and the id of the step or
request it belongs to. Spans stay in memory until ``write`` is called at the
end of the run. Self time is a span's duration minus the time its child
spans cover; because wrapped calls nest strictly on one thread, that is the
duration minus the sum of the children's durations. Every span name starts
with the layer it belongs to (``ndtensor.``, ``pools.``, ...), so per-layer
self times add up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

LAYERS = ("ndtensor", "pools", "encoder", "objectives", "optim",
          "adaptation", "checkpoint", "harness", "corpus")

# Op kinds reported one by one; every other op still counts in ndtensor.
REPORTED_OPS = ("matmul", "add", "gelu", "layernorm", "softmax", "reshape",
                "permute", "add_const", "concat", "gather_rows")

# Span names whose self time is the harness waiting for a batch.
BATCH_SPANS = ("harness.batch_from_pairs", "harness._task_batch",
               "harness._labeled_batch", "harness._itm_eval_batch",
               "harness._caption_batch")

# Spans that start a new training step or inference request.
STEP_SPANS = ("objectives.pretrain_step", "adaptation.finetune_step",
              "harness.run_eval")


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.request_ids = array("i")
        self._open: list[int] = []
        self._covered: list[float] = []
        self.request = -1
        self._patched: list[tuple[object, str, object]] = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._queries: set = set()

    # -- totals ---------------------------------------------------------------

    def end_step(self):
        """Fold the distinct pool queries of the step that just ended."""
        self.counts["pools.distinct_queries"] += len(self._queries)
        self._queries.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, s in self.self_s.items():
            out[self.names[nid].split(".", 1)[0]] += s
        return out

    def incl(self, name: str) -> float:
        return self.incl_s[self._id(name)]

    def self_time(self, name: str) -> float:
        return self.self_s[self._id(name)]

    def n_calls(self, name: str) -> int:
        return self.calls[self._id(name)]

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1] if self._open else -1)
        self.request_ids.append(self.request)
        self.ends.append(0.0)
        self._open.append(idx)
        self._covered.append(0.0)
        self.starts.append(self._clock())
        return idx

    def _exit(self, idx: int, nid: int):
        end = self._clock()
        self.ends[idx] = end
        self._open.pop()
        dur = end - self.starts[idx]
        self.self_s[nid] += dur - self._covered.pop()
        self.incl_s[nid] += dur
        self.calls[nid] += 1
        if self._covered:
            self._covered[-1] += dur

    def span(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)``/``after(args, result)``
        record counts at the same boundary."""
        nid = self._id(name)
        starts_step = name in STEP_SPANS

        def wrapper(*args, **kwargs):
            if starts_step:
                self.end_step()
                self.request += 1
            if before is not None:
                before(args)
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, nid)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(original, name, before, after))

    def install(self):
        from dynaprompt import (adaptation, corpus, encoder, harness,
                                objectives, optim)
        from dynaprompt.ndtensor import Tensor, ops

        self._install_ops(ops, Tensor)
        p = self._patch

        def count_nodes(args):
            node = args[0].tape_node
            self.counts["ndtensor.tape_nodes"] += len(node.tape.nodes) if node else 0

        p(objectives, "backward", "ndtensor.backward", before=count_nodes)
        p(adaptation, "backward", "ndtensor.backward", before=count_nodes)

        def seen_query(args):
            pool, query = args[0], args[1]
            self._queries.add((id(pool), query.data.tobytes()))

        p(encoder, "select_prompts", "pools.select_prompts", before=seen_query)
        p(encoder, "assemble_prompt_tokens", "pools.assemble_prompt_tokens")
        p(objectives, "surrogate_loss", "pools.surrogate_loss")

        def positions(args):
            states = args[1]
            self.counts["encoder.positions"] += states.shape[0] * states.shape[1]

        model = encoder.VisionLanguageModel
        p(model, "forward", "encoder.forward")
        p(model, "unify_inputs", "encoder.unify_inputs")
        p(model, "encode", "encoder.encode", before=positions)

        p(objectives, "combined_pretrain_loss", "objectives.combined_pretrain_loss")
        p(adaptation, "itc_loss", "objectives.itc_loss")
        p(harness, "pretrain_step", "objectives.pretrain_step")
        p(optim.AdamW, "step", "optim.step")

        def decoder_positions(args):
            prefix, token_ids = args[1], args[2]
            self.counts["adaptation.decoder_positions"] += (
                prefix.shape[0] * (prefix.shape[1] + len(token_ids[0])))

        p(harness, "finetune_step", "adaptation.finetune_step")
        p(adaptation, "finetune_loss", "adaptation.finetune_loss")
        p(adaptation, "caption_loss", "adaptation.caption_loss")
        p(adaptation.CaptionDecoder, "forward_states",
          "adaptation.decoder_forward", before=decoder_positions)
        p(harness, "classify", "adaptation.classify")
        p(harness, "encode_retrieval_reps", "adaptation.encode_retrieval_reps")
        p(adaptation, "encode_retrieval_reps", "adaptation.encode_retrieval_reps")
        p(harness, "retrieval_rank", "adaptation.retrieval_rank")
        p(harness, "generate_report", "adaptation.generate_report")

        def file_bytes(args, _result=None):
            self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

        p(harness, "save_checkpoint", "checkpoint.save", after=file_bytes)
        p(harness, "load_checkpoint", "checkpoint.load", before=file_bytes)

        for entry in ("run_pretrain", "run_finetune", "run_eval"):
            p(harness, entry, f"harness.{entry}")
        for name in BATCH_SPANS:
            p(harness, name.split(".", 1)[1], name)
        p(corpus, "gen_corpus", "corpus.gen_corpus")

    def _install_ops(self, ops, tensor_cls):
        """Forward spans per op; backward spans through each node's grad_fn."""
        tracer = self

        class TimedGrad:
            __slots__ = ("fn", "nid")

            def __init__(self, fn, nid):
                self.fn, self.nid = fn, nid

            def __call__(self, g):
                idx = tracer._enter(self.nid)
                try:
                    return self.fn(g)
                finally:
                    tracer._exit(idx, self.nid)

        for op in ops.__all__:
            bwd_nid = self._id(f"ndtensor.bwd.{op}")

            def tag_backward(_args, out, bwd_nid=bwd_nid):
                node = out.tape_node if isinstance(out, tensor_cls) else None
                # an op that returns an inner op's output leaves it tagged
                if node is not None and type(node.grad_fn) is not TimedGrad:
                    node.grad_fn = TimedGrad(node.grad_fn, bwd_nid)

            self._patch(ops, op, f"ndtensor.fwd.{op}", after=tag_backward)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Dump every recorded span as CSV: start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,request,start_s,end_s\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{i},{names[self.name_ids[i]]},{self.parents[i]},"
                         f"{self.request_ids[i]},{self.starts[i]!r},"
                         f"{self.ends[i]!r}\n")
