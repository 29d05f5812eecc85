"""The benchmark's tracer still finds, wraps and restores every entry point.

``perfbench/tracing.py`` patches functions by module and attribute name, so a
renamed or re-signatured entry point would otherwise surface only when the
traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from dynaprompt import harness
from dynaprompt.config import ModelConfig
from dynaprompt.ndtensor import ops
from dynaprompt.ndtensor.tensor import active_tape

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_entry_point_and_uninstall_restores(tiny_config,
                                                                  tmp_path,
                                                                  monkeypatch):
    recorded = []

    def recording(out, inputs, grad_fn, record_op=ops.record_op):
        out = record_op(out, inputs, grad_fn)
        if out.tape_node is not None:
            recorded.append(out.tape_node)
        return out

    monkeypatch.setattr(ops, "record_op", recording)
    tracer = load_tracing().Tracer()
    patched = []
    try:
        tracer.install()  # a missing entry point raises AttributeError here
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner}.{attr}"

        # one tiny pass through the wrapped entry points: each wrapper's
        # argument hooks must accept the calls the package makes
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "steps": 1,
                                        "checkpoint_every": 0,
                                        "concepts_per_pair": 1})
        corpus = harness.default_corpus(config)
        before = len(active_tape().nodes)  # another test's leftovers
        ckpt, _ = harness.run_pretrain(config, corpus, tmp_path)
        # the tracer counts a tape just before backward consumes it
        step_nodes = tracer.counts["ndtensor.tape_nodes"] - before
        assert step_nodes == len(recorded) > 0
        for task in ("pair_classify", "retrieval", "generation"):
            fckpt, _ = harness.run_finetune(config, corpus, ckpt, task,
                                            tmp_path, steps=1)
            harness.run_eval(config, corpus, fckpt, task, tmp_path)
    finally:
        tracer.uninstall()

    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    for name in ("pools.select_prompts", "pools.assemble_prompt_tokens",
                 "pools.surrogate_loss", "encoder.encode",
                 "adaptation.decoder_forward", "adaptation.generate_report",
                 "harness._labeled_batch", "harness._caption_batch",
                 "checkpoint.load", "ndtensor.fwd.gather_blocks",
                 "ndtensor.bwd.gather_blocks", "ndtensor.fwd.cosine_pull",
                 "ndtensor.bwd.cosine_pull"):
        assert tracer.n_calls(name) > 0, name
    for count in ("ndtensor.tape_nodes", "encoder.positions",
                  "adaptation.decoder_positions", "checkpoint.bytes"):
        assert tracer.counts[count] > 0, count
