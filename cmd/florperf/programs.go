package main

import (
	"fmt"

	flor "flor.dev/flor"
	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/data"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// The benchmark's training programs are built here, from the public flor
// statements, rather than taken from internal/workloads: that package has
// only a Smoke scale (6 epochs, < 1 MB of checkpoints — everything fits a
// CPU cache) and a Full scale (3–9 s per recording), and one benchmark run
// has to set up, measure and verify inside about twenty seconds. Each
// program keeps the Figure 2 shape of the Table 3 workloads (setup, an epoch
// loop around a nested training loop, a metrics log per epoch, a final log);
// only the sizes are the benchmark's own. Every size below was chosen for a
// reason stated next to it.

// probeLabel is the hindsight log statement every query adds.
const probeLabel = "hindsight_weight_norm"

// netSpec sizes a classifier program.
type netSpec struct {
	name string
	// seed draws the training data; initSeed draws the initial weights.
	seed, initSeed uint64
	epochs         int
	steps          int
	batch          int
	// conv selects Cifr's ConvNet (compute-heavy, 100 KB of state); otherwise
	// a residual MLP of the given width and depth (state-heavy).
	conv         bool
	width, depth int
}

// trainSpec is record_train's program: Cifr's model, dataset shape and 36
// steps per epoch (internal/workloads/cv.go), cut from 200 epochs to 8 so a
// vanilla/record pair takes about 0.3 s and a run measures tens of pairs.
// Checkpoints are 100 KB against ~20 ms of compute per epoch, so record
// layers do well under 1 % of the work: the compute-bound end.
//
// The seed draws the training data; the initial weights are always Cifr's
// own. Whether the store's automatic frame style compresses this small net's
// tensors depends on the initial weights (one seed in five gave packs 3-25 %
// smaller), and a workload whose bytes on disk change with the seed would
// measure the seed.
func trainSpec(seed uint64, smoke bool) netSpec {
	s := netSpec{name: "train", seed: seed, initSeed: 0xC1F4, epochs: 8, steps: 36, batch: 8, conv: true}
	if smoke {
		// Enough compute per epoch that the adaptive rule, which starts
		// from a modelled 500 MB/s, takes the first checkpoint.
		s.epochs, s.steps = 3, 12
	}
	return s
}

// querySpec is one of the recorded runs the query workloads read: a residual
// MLP with 64 K parameters, so that model plus SGD momentum make a 1 MiB
// checkpoint per epoch, 24 epochs per run, and three cheap training steps
// per epoch. Recorded with every epoch checkpointed, a probed replay restores
// 24 MiB and re-executes almost nothing: query latency is restore cost, the
// part of a hindsight query flor can optimise. Three such runs are 72 MiB of
// logical state, past this machine's last-level cache.
func querySpec(seed uint64, i int, smoke bool) netSpec {
	s := netSpec{name: fmt.Sprintf("q%d", i), seed: seed*16 + uint64(i) + 1, initSeed: seed*16 + uint64(i) + 1,
		epochs: 24, steps: 3, batch: 4, width: 64, depth: 8}
	if smoke {
		s.epochs, s.steps, s.width, s.depth = 4, 1, 16, 2
	}
	return s
}

// classifier builds the Figure 2 training program for a netSpec.
func classifier(s netSpec) func() *flor.Program {
	return func() *flor.Program {
		type trainer struct {
			ds    *data.VectorDataset
			model nn.Classifier
		}
		get := func(e *flor.Env) *trainer { return e.MustGet("trainer").(*flor.OpaqueVal).V.(*trainer) }
		train := &flor.Loop{ID: "train", IterVar: "step", Iters: s.steps, Body: []flor.Stmt{
			flor.AssignFunc([]string{"avg_loss"}, "train_batch", []string{"net", "step"}, func(e *flor.Env) error {
				t := get(e)
				x, labels := t.ds.Batch(e.Int("epoch"), e.Int("step"))
				tape := autograd.NewTape()
				nn.ZeroGrads(t.model)
				loss := tape.SoftmaxCrossEntropy(t.model.Forward(tape, autograd.NewConst(x)), labels)
				tape.Backward(loss)
				e.SetFloat("avg_loss", loss.Value.Item())
				return nil
			}),
			flor.ExprMethod("optimizer", "step", nil, func(e *flor.Env) error {
				e.MustGet("optimizer").(*flor.OptimizerVal).O.Step()
				return nil
			}),
		}}
		return &flor.Program{
			Name: s.name,
			Setup: []flor.Stmt{
				flor.AssignFunc([]string{"net", "optimizer"}, "build_model", nil, func(e *flor.Env) error {
					t := &trainer{}
					if s.conv {
						t.ds = data.NewVectorDataset(s.seed, 48, 10, s.batch, s.steps, 0.6)
						t.model = nn.NewConvNet(xrand.New(s.initSeed), 48, 4, 5, 4, 3, 10)
					} else {
						t.ds = data.NewVectorDataset(s.seed, 32, 10, s.batch, s.steps, 0.6)
						t.model = nn.NewResidualMLP(xrand.New(s.initSeed), 32, s.width, s.width, s.depth, 10)
					}
					e.Set("net", &flor.ModelVal{M: t.model})
					e.Set("optimizer", &flor.OptimizerVal{O: opt.NewSGD(t.model, 0.05, 0.9, 1e-4)})
					e.Set("trainer", &flor.OpaqueVal{V: t})
					return nil
				}),
				flor.AssignExpr([]string{"avg_loss"}, nil, func(e *flor.Env) error {
					e.SetFloat("avg_loss", 0)
					return nil
				}),
			},
			Main: &flor.Loop{ID: "main", IterVar: "epoch", Iters: s.epochs, Body: []flor.Stmt{
				flor.LoopStmt(train),
				flor.LogStmt("metrics", func(e *flor.Env) (string, error) {
					return fmt.Sprintf("epoch=%d loss=%.12g", e.Int("epoch"), e.Float("avg_loss")), nil
				}),
			}},
			Tail: []flor.Stmt{flor.LogStmt("final", func(e *flor.Env) (string, error) {
				return fmt.Sprintf("loss=%.12g", e.Float("avg_loss")), nil
			})},
		}
	}
}

// ckptHeavy is record_ckpt's program: a frozen tensor that the training loop
// names but never writes (so it is in every checkpoint and the store should
// keep it once) and a tensor rewritten in full every epoch from a seeded
// generator, with no other compute. Recording it is all snapshot, encode,
// dedup and pack writes. 6 MiB + 2 MiB over 16 epochs is 128 MiB logical and
// 38 MiB unique per recording: a quarter of the size the issue sketched, so
// that a run fits tens of recordings, and still past the last-level cache.
func ckptHeavy(seed uint64, frozenMiB, hotMiB, epochs int) func() *flor.Program {
	const perMiB = (1 << 20) / 8
	fill := func(t *tensor.Tensor, r *xrand.RNG) {
		d := t.Data()
		for i := range d {
			d[i] = r.Float64()
		}
	}
	return func() *flor.Program {
		update := &flor.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []flor.Stmt{
			flor.AssignFunc([]string{"hot", "frozen", "rng"}, "rewrite", []string{"hot", "rng"}, func(e *flor.Env) error {
				fill(e.MustGet("hot").(*flor.TensorVal).T, e.MustGet("rng").(*flor.RNGVal).R)
				return nil
			}),
		}}
		return &flor.Program{
			Name: "ckptheavy",
			Setup: []flor.Stmt{
				flor.AssignFunc([]string{"hot", "frozen", "rng"}, "build", nil, func(e *flor.Env) error {
					r := xrand.New(seed)
					frozen := tensor.New(frozenMiB * perMiB)
					fill(frozen, r)
					e.Set("frozen", &flor.TensorVal{T: frozen})
					e.Set("hot", &flor.TensorVal{T: tensor.New(hotMiB * perMiB)})
					e.Set("rng", &flor.RNGVal{R: r})
					return nil
				}),
			},
			Main: &flor.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []flor.Stmt{
				flor.LoopStmt(update),
				flor.LogStmt("metrics", func(e *flor.Env) (string, error) {
					d := e.MustGet("hot").(*flor.TensorVal).T.Data()
					return fmt.Sprintf("epoch=%d first=%.12g last=%.12g", e.Int("epoch"), d[0], d[len(d)-1]), nil
				}),
			}},
			Tail: []flor.Stmt{flor.LogStmt("final", func(e *flor.Env) (string, error) {
				return fmt.Sprintf("frozen0=%.12g", e.MustGet("frozen").(*flor.TensorVal).T.Data()[0]), nil
			})},
		}
	}
}

// withProbe adds the hindsight log statement after the training loop of
// every epoch: the weight norm for classifier programs, a checksum of the
// rewritten tensor for ckptHeavy. A replay answers it by restoring each
// epoch's checkpoint and skipping the training loop.
func withProbe(factory func() *flor.Program) func() *flor.Program {
	return func() *flor.Program {
		p := factory()
		p.Main.Body = flor.AddLog(p.Main.Body, 1, flor.LogStmt(probeLabel, func(e *flor.Env) (string, error) {
			if mv, ok := e.Get("net"); ok {
				return fmt.Sprintf("epoch=%d norm=%.12g", e.Int("epoch"), nn.WeightNorm(mv.(*flor.ModelVal).M)), nil
			}
			d := e.MustGet("hot").(*flor.TensorVal).T.Data()
			sum := 0.0
			for i := 0; i < len(d); i += 4096 {
				sum += d[i]
			}
			return fmt.Sprintf("epoch=%d sum=%.12g", e.Int("epoch"), sum), nil
		}))
		return p
	}
}
