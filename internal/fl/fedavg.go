// Package fl implements the horizontal federated-learning substrate: the
// FedAvg algorithm (McMahan et al. 2017) exactly as described in Section III
// of the paper, with uniform client selection and full per-round recording
// of every client's local update — the information the utility matrix and
// both Shapley metrics are computed from.
package fl

import (
	"context"
	"fmt"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
)

// Config controls one federated training run.
type Config struct {
	// Rounds is the number of FedAvg rounds T.
	Rounds int
	// ClientsPerRound is the selection size K = |I_t|.
	ClientsPerRound int
	// LearningRate is the initial learning rate η₁; round t steps with
	// η_t = η₁/(1 + lrDecay·t).
	LearningRate float64
	// ForceFullFirstRound selects every client in round 0, implementing the
	// Everyone-Being-Heard assumption (Assumption 1 / Algorithm 1).
	ForceFullFirstRound bool
	// Seed drives client selection and parameter initialization.
	Seed int64
	// Progress, if non-nil, is called from the training goroutine after
	// every completed round with the number of completed rounds and the
	// total round count. Implementations must be cheap; they run on the
	// training hot path.
	Progress func(done, total int)
}

// lrDecay sets the schedule η_t = η₁/(1 + lrDecay·t): a non-increasing
// rate, as Propositions 1–2 require of the training run.
const lrDecay = 0.01

// DefaultConfig mirrors the small-scale setup used throughout the paper's
// experiments: T rounds, K selected clients, one local step.
func DefaultConfig(rounds, clientsPerRound int) Config {
	return Config{
		Rounds:              rounds,
		ClientsPerRound:     clientsPerRound,
		LearningRate:        0.5,
		ForceFullFirstRound: true,
		Seed:                1,
	}
}

// Round records everything observable about one FedAvg round.
type Round struct {
	// Global is the global model w^t broadcast at the start of the round.
	Global []float64
	// Locals[i] is client i's updated local model w_i^{t+1}. Every client
	// computes an update (Assumption 1: everyone is willing to participate);
	// only the selected ones are aggregated.
	Locals [][]float64
	// Selected is the subset I_t aggregated into the next global model.
	Selected []int
	// TestLoss is ℓ(w^t; D_c), the reference point of the per-round utility
	// u_t(w) = ℓ(w^t; D_c) − ℓ(w; D_c) (Eq. 6).
	TestLoss float64
	// LearningRate is η_t.
	LearningRate float64
}

// Run is a completed federated training trace.
type Run struct {
	Model   model.Model
	Test    *dataset.Dataset
	Clients []*dataset.Dataset
	Rounds  []Round
	// Final is the global model after the last round.
	Final []float64
}

// NumClients returns the number of participating clients N.
func (r *Run) NumClients() int { return len(r.Clients) }

// Utility evaluates the paper's per-round utility U_t(S) = u_t(w_S^{t+1})
// where w_S^{t+1} is the average of the locals of S (Section V). It panics
// if S is empty; the empty coalition's utility is 0 by convention and is
// handled by callers.
func (r *Run) Utility(t int, s []int) float64 {
	if len(s) == 0 {
		panic("fl: utility of empty coalition")
	}
	rd := &r.Rounds[t]
	vecs := make([][]float64, len(s))
	for i, c := range s {
		vecs[i] = rd.Locals[c]
	}
	wS := mat.MeanVecs(vecs)
	return rd.TestLoss - r.Model.Loss(wS, r.Test)
}

// UtilityScratch holds the reusable buffers of allocation-free utility
// evaluation: the local-model pointer slice and the aggregate vector that
// Run.Utility otherwise rebuilds on every call. A scratch may be reused
// across calls on one goroutine; it is not safe for concurrent use — pool
// scratches per worker instead.
type UtilityScratch struct {
	vecs [][]float64
	mean []float64
}

// AggregateInto computes the uniform FedAvg aggregate w_S^{t+1} — the
// element-wise mean of the locals of S — into the scratch and returns the
// aggregate vector, owned by sc and valid until its next use. The
// accumulation order matches mat.MeanVecs exactly, so the aggregate is
// bit-identical to the one Utility computes; after the scratch's buffers
// have grown to the model size, the aggregation performs zero
// allocations. It panics if S is empty.
func (r *Run) AggregateInto(sc *UtilityScratch, t int, s []int) []float64 {
	if len(s) == 0 {
		panic("fl: utility of empty coalition")
	}
	rd := &r.Rounds[t]
	sc.vecs = sc.vecs[:0]
	for _, c := range s {
		sc.vecs = append(sc.vecs, rd.Locals[c])
	}
	sc.mean = mat.MeanVecsInto(sc.mean, sc.vecs)
	return sc.mean
}

// UtilityInto is Utility with caller-provided scratch: same value, bit for
// bit, without the per-call slice allocations of the aggregation step. It
// is the memoized evaluator's hot path — the cache-miss cost reduces to
// the irreducible test-loss evaluation.
func (r *Run) UtilityInto(sc *UtilityScratch, t int, s []int) float64 {
	wS := r.AggregateInto(sc, t, s)
	return r.Rounds[t].TestLoss - r.Model.Loss(wS, r.Test)
}

// TrainRun executes FedAvg and records the full trace. Every client
// computes its local update in every round (needed by the ground-truth
// utility matrix); only the selected subset is aggregated, so the global
// trajectory is identical to a run that skipped unselected clients.
func TrainRun(cfg Config, m model.Model, clients []*dataset.Dataset, test *dataset.Dataset) (*Run, error) {
	return TrainRunCtx(context.Background(), cfg, m, clients, test)
}

// TrainRunCtx is TrainRun with cooperative cancellation: the context is
// checked at every round boundary, so a cancelled run returns ctx.Err()
// without a partially recorded round. The trace produced under a context
// that is never cancelled is identical to TrainRun's.
func TrainRunCtx(ctx context.Context, cfg Config, m model.Model, clients []*dataset.Dataset, test *dataset.Dataset) (*Run, error) {
	if err := validate(cfg, clients); err != nil {
		return nil, err
	}
	g := rng.New(cfg.Seed)
	selRNG := g.Split(1)
	// The initial model's stream is split off after three draws from g,
	// and every pinned trace and report starts from the model it seeds.
	// Only selection takes a stream of its own, so two draws are discarded
	// to keep that position.
	g.Int63()
	g.Int63()
	w := m.InitParams(g.Split(2))

	run := &Run{Model: m, Test: test, Clients: clients, Rounds: make([]Round, 0, cfg.Rounds)}
	n := len(clients)

	for t := 0; t < cfg.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lr := cfg.LearningRate / (1 + lrDecay*float64(t))
		rd := Round{
			Global:       mat.CopyVec(w),
			Locals:       make([][]float64, n),
			TestLoss:     m.Loss(w, test),
			LearningRate: lr,
		}
		// One full-batch gradient step per client.
		for i, d := range clients {
			local := mat.CopyVec(w)
			mat.Axpy(-lr, m.Gradient(local, d), local)
			rd.Locals[i] = local
		}
		// Client selection.
		if t == 0 && cfg.ForceFullFirstRound {
			rd.Selected = make([]int, n)
			for i := range rd.Selected {
				rd.Selected[i] = i
			}
		} else {
			rd.Selected = selRNG.SampleWithoutReplacement(n, cfg.ClientsPerRound)
		}
		// The next global model is the uniform mean of the selected locals.
		vecs := make([][]float64, len(rd.Selected))
		for i, c := range rd.Selected {
			vecs[i] = rd.Locals[c]
		}
		w = mat.MeanVecs(vecs)
		run.Rounds = append(run.Rounds, rd)
		if cfg.Progress != nil {
			cfg.Progress(t+1, cfg.Rounds)
		}
	}
	run.Final = mat.CopyVec(w)
	return run, nil
}

func validate(cfg Config, clients []*dataset.Dataset) error {
	if cfg.Rounds <= 0 {
		return fmt.Errorf("fl: rounds must be positive, got %d", cfg.Rounds)
	}
	if len(clients) == 0 {
		return fmt.Errorf("fl: no clients")
	}
	if cfg.ClientsPerRound <= 0 || cfg.ClientsPerRound > len(clients) {
		return fmt.Errorf("fl: clients per round %d out of range [1,%d]", cfg.ClientsPerRound, len(clients))
	}
	if cfg.LearningRate <= 0 {
		return fmt.Errorf("fl: learning rate must be positive, got %v", cfg.LearningRate)
	}
	for i, d := range clients {
		if d.Len() == 0 {
			return fmt.Errorf("fl: client %d has no data", i)
		}
	}
	return nil
}
