"""Frame-by-frame inference with the streaming assembler.

Batch windowing runs through the same stream assembler, whose frame-keyed
RNG makes a frame normalize the same wherever it is met, so a prediction made
live, frame by frame, is bit-identical to the one you would get by windowing
the recorded sequence after the fact.
"""

import numpy as np

from adaptgraph.checkpoint import load_state
from adaptgraph.data import (StreamAssembler, SynthSpec, make_windows, split,
                             synth_generate)
from adaptgraph.network import ModelConfig, build
from adaptgraph.tensor import Tensor
from adaptgraph.training import TrainConfig, fit, predict
import adaptgraph.tensor as T

WINDOW, POINTS, SEED = 5, 4, 42

sequences = synth_generate(SynthSpec(classes=3, sequences_per_class=20,
                                     frames=10, points=8, noise=0.03), seed=SEED)
samples = []
for seq in sequences:
    samples.extend(make_windows(seq, WINDOW, 5, POINTS, seed=SEED))
train_set, val_set, _ = split(samples, (0.8, 0.1, 0.1), seed=0)

mcfg = ModelConfig(in_channels=3, k=6, num_heads=1, stage_widths=(12, 12, 16, 16),
                   emb_dims=32, fc_widths=(24,), num_classes=3, mak_mid_channels=8)
model = build(mcfg, seed=0)
result = fit(model, train_set, val_set,
             TrainConfig(lr_max=0.05, batch_size=16, max_epochs=8, patience=8,
                         seed=0))
load_state(model, result.best_state)
model.eval()
print(f"trained a small classifier (best val acc {result.best_val_acc:.3f})\n")

# a fresh "live" recording the model has never seen
live = synth_generate(SynthSpec(classes=3, sequences_per_class=1, frames=12,
                                points=8, noise=0.03), seed=7)[2]
live.seq_id = 0
print(f"streaming a 12-frame sequence of class {live.label}:")

assembler = StreamAssembler(WINDOW, POINTS, seed=SEED, seq_id=0)
stream_preds = []
for i, frame in enumerate(live.frames):
    sample = assembler.push(frame)
    if sample is None:
        print(f"  frame {i}: buffering ({i + 1}/{WINDOW})")
        continue
    with T.no_grad():
        logits = model(Tensor(sample.tensor[None, :, :]))
    pred = int(np.argmax(logits.data[0]))
    stream_preds.append(pred)
    print(f"  frame {i}: predict class {pred}")

batch_preds = predict(model, make_windows(live, WINDOW, 1, POINTS, seed=SEED))
print("\nstream equals batch, prediction for prediction:",
      stream_preds == batch_preds.tolist())
