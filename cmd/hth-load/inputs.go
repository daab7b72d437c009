package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/secpert"
)

// input is one generated job together with the reference its every
// verdict is checked against.
type input struct {
	name  string
	class string      // verdict class the input table expects
	spec  hth.JobSpec // the in-process submission
	body  []byte      // the POST /jobs body (upload-open only)
	sc    *corpus.Scenario

	// Reference outcome, computed at set-up by an independent run.
	refHash  string
	refSteps uint64
	refSig   string // corpus-closed: the batch SweepSignature element
}

// inputSet is everything one workload run submits.
type inputSet struct {
	inputs []*input
	deck   *deck
}

// deck deals input indices in seeded shuffled passes: every input is
// drawn once per pass, so each run's mix matches its set exactly
// instead of drifting with sampling noise.
type deck struct {
	mu    sync.Mutex
	rng   *rand.Rand
	order []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	d.pos = n
	return d
}

func (d *deck) next() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pos == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// newRNG derives a workload's generator from the run seed, so two
// workloads never share a stream.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, stream)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// generate builds a workload's inputs from the seed alone, without
// running anything.
func generate(w string, seed uint64, instrScale float64) (*inputSet, error) {
	rng := newRNG(seed, w)
	var ins []*input
	switch w {
	case "corpus-closed":
		for _, s := range corpus.All() {
			ins = append(ins, &input{
				name: s.Name, sc: s,
				spec: hth.JobSpec{
					Tenant: s.Table, Setup: s.Setup, Tweak: s.Tweak,
					Path: s.Spec.Path, Argv: s.Spec.Argv, Env: s.Spec.Env, Stdin: s.Spec.Stdin,
				},
			})
		}
	case "taint-dense", "taint-sparse":
		sparse := w == "taint-sparse"
		for i, sh := range kernelShapes(sparse) {
			sh.instrs = int(float64(sh.instrs) * instrScale)
			ins = append(ins, kernelInput(rng, i, sh, sparse))
		}
	case "upload-open":
		var err error
		if ins, err = uploadInputs(rng); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return &inputSet{inputs: ins, deck: newDeck(rng, len(ins))}, nil
}

// reference runs every input once outside the service and records the
// outcome each job must reproduce:
//
//   - corpus-closed: the batch corpus sweep, whose every scenario must
//     meet the paper's expectation (Scenario.Check);
//   - taint-*: the interpreter tier alone (all tier thresholds 0), so
//     the tiered engine under test is checked against the engine it
//     accelerates;
//   - upload-open: a batch System.Run of the same payloads.
//
// The references run one at a time: run in parallel, set-up time
// doubled whenever the second CPU was busy elsewhere, so setup_s
// did not repeat.
func reference(w string, set *inputSet) error {
	if w == "corpus-closed" {
		scs := make([]*corpus.Scenario, len(set.inputs))
		for i, in := range set.inputs {
			scs[i] = in.sc
		}
		outs := corpus.RunAll(scs, 1)
		sigs := corpus.SweepSignature(outs)
		for i, o := range outs {
			if !o.Reproduced() {
				return fmt.Errorf("reference: scenario %s does not reproduce: %v %v", o.Scenario.Name, o.Err, o.Problems)
			}
			set.inputs[i].refSig, set.inputs[i].refSteps = sigs[i], o.Result.TotalSteps
		}
		return nil
	}
	for _, in := range set.inputs {
		if err := in.runReference(w != "upload-open"); err != nil {
			return err
		}
	}
	return nil
}

func (in *input) runReference(interp bool) error {
	res, _, err := runBatch(in, func(c *hth.Config) {
		if interp {
			c.Monitor.PromoteThreshold, c.Monitor.TraceThreshold, c.Monitor.CleanThreshold = 0, 0, 0
		}
	})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if res.RunErr != nil {
		return fmt.Errorf("reference %s: run ended %v", in.name, res.RunErr)
	}
	in.refHash, in.refSteps = warnHash(res.Warnings), res.TotalSteps
	if v := verdictOf(res); v != in.class {
		return fmt.Errorf("reference %s: verdict %s, input table says %s", in.name, v, in.class)
	}
	return nil
}

// buildWorld installs a JobSpec's world into a fresh System the way the
// service does: Setup, programs in path order, binaries, files.
func buildWorld(spec hth.JobSpec) (*hth.System, error) {
	sys := hth.NewSystem()
	if spec.Setup != nil {
		spec.Setup(sys)
	}
	for _, p := range sortedKeys(spec.Programs) {
		if err := sys.InstallSource(p, spec.Programs[p]); err != nil {
			return nil, err
		}
	}
	for _, p := range sortedKeys(spec.Binaries) {
		if err := sys.InstallBinary(p, spec.Binaries[p]); err != nil {
			return nil, err
		}
	}
	for p, data := range spec.Files {
		sys.CreateFile(p, data)
	}
	return sys, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// verdictOf renders a result's verdict the way JobResult.Verdict does.
func verdictOf(res *hth.Result) string {
	if sev, ok := res.MaxSeverity(); ok {
		return sev.String()
	}
	return "clean"
}

// warnHash is JobResult.WarnHash recomputed from a batch result: FNV-64a
// over every rendered warning, NUL-separated.
func warnHash(ws []secpert.Warning) string {
	h := fnv.New64a()
	for _, w := range ws {
		io.WriteString(h, w.String())
		io.WriteString(h, "\x00")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// check compares one finished job with its input's reference; nil
// means the verdict is correct.
func (in *input) check(res *hth.JobResult) error {
	if res.Status != "done" {
		return fmt.Errorf("%s: status %s: %v", in.name, res.Status, res.Error)
	}
	if in.sc != nil {
		problems := in.sc.Check(res.Raw)
		sig := corpus.SweepSignature([]corpus.RunOutcome{{Scenario: in.sc, Result: res.Raw, Problems: problems}})[0]
		if len(problems) > 0 || sig != in.refSig {
			return fmt.Errorf("%s: signature %q, reference %q", in.name, sig, in.refSig)
		}
		return nil
	}
	if res.Verdict != in.class || res.WarnHash != in.refHash || res.TotalSteps != in.refSteps {
		return fmt.Errorf("%s: verdict %s hash %s steps %d, reference %s hash %s steps %d",
			in.name, res.Verdict, res.WarnHash, res.TotalSteps, in.class, in.refHash, in.refSteps)
	}
	return nil
}

// setup is one timed set-up: input generation, reference runs and
// service start. The returned service is idle.
func setup(w string, seed uint64, instrScale float64) (*inputSet, *hth.Service, time.Duration, error) {
	t := time.Now()
	set, err := generate(w, seed, instrScale)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := reference(w, set); err != nil {
		return nil, nil, 0, err
	}
	svc := hth.NewService(hth.ServiceConfig{})
	return set, svc, time.Since(t), nil
}
