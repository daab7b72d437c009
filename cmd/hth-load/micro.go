package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	hth "repro"
	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/image"
	"repro/internal/secpert"
)

// microRows measures, after the traced window, the layers no span of
// a service job isolates. Each row checks its own output:
//
//   - image.Decode of both ELF fixtures must hash the same every time;
//   - asm.Assemble of the seed's generated programs likewise;
//   - Secpert replay of recorded event logs must reproduce each job's
//     warnings (a job whose replay differs is listed, never dropped);
//   - Unmonitored System.Run of the workload's inputs must execute the
//     reference's instruction count (inputs a warning-driven kill cuts
//     short are listed instead);
//   - the span recorder's cost: System.Run with Config.Spans on and
//     off, alternating, over the workload's inputs for a twentieth of
//     the window.
//
// The listed differences come back as notes; a broken check is an
// error.
func microRows(set *inputSet, t *tracer, rc runConfig) (map[string]float64, []string, error) {
	m := map[string]float64{}
	var notes []string

	for _, f := range []struct {
		name string
		data []byte
	}{{"elf-trojan", corpus.ELFTrojan()}, {"elf-benign", corpus.ELFBenign()}} {
		xs, err := timeStable(microReps, func() (any, error) { return image.Decode("/bin/"+f.name, f.data) })
		if err != nil {
			return nil, nil, fmt.Errorf("image.Decode %s: %w", f.name, err)
		}
		m["image.decode_us."+f.name] = quantile(xs, 0.5) / 1e3
	}

	progs, err := generatedPrograms(rc.seed, rc.instrScale)
	if err != nil {
		return nil, nil, err
	}
	var xs []float64
	for _, p := range progs {
		ys, err := timeStable(max(1, microReps/len(progs)), func() (any, error) { return asm.Assemble(p[0], p[1]) })
		if err != nil {
			return nil, nil, fmt.Errorf("asm.Assemble %s: %w", p[0], err)
		}
		xs = append(xs, ys...)
	}
	m["asm.assemble_us.p50"] = quantile(xs, 0.5) / 1e3

	names := sortedKeys(t.kept)
	xs = xs[:0]
	for _, n := range names {
		k := t.kept[n]
		cfg := configFor(k.in)
		start := time.Now()
		sec := secpert.New(cfg.Policy, cfg.Advisor)
		for _, e := range k.res.Events {
			if e.Access != nil {
				sec.HandleAccess(e.Access)
			} else {
				sec.HandleIO(e.IO)
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds()))
		if warnHash(sec.Warnings()) != warnHash(k.res.Warnings) {
			notes = append(notes, fmt.Sprintf("secpert replay of %s: %d warnings, the job had %d",
				n, len(sec.Warnings()), len(k.res.Warnings)))
		}
	}
	m["secpert.replay_us.p50"] = quantile(xs, 0.5) / 1e3

	var steps uint64
	var took time.Duration
	for _, in := range set.inputs {
		res, d, err := runBatch(in, func(c *hth.Config) { c.Unmonitored = true })
		if err != nil {
			return nil, nil, err
		}
		steps += res.TotalSteps
		took += d
		if res.TotalSteps != in.refSteps {
			notes = append(notes, fmt.Sprintf("unmonitored %s: %d instructions, monitored reference %d",
				in.name, res.TotalSteps, in.refSteps))
		}
	}
	m["vm.unmonitored_mips"] = float64(steps) / took.Seconds() / 1e6

	var on, off time.Duration
	deadline := time.Now().Add(rc.window / 20)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		in := set.inputs[i%len(set.inputs)]
		for k := 0; k < 2; k++ {
			spans := (i+k)%2 == 0 // alternate which side runs first
			_, d, err := runBatch(in, func(c *hth.Config) { c.Spans = spans })
			if err != nil {
				return nil, nil, err
			}
			if spans {
				on += d
			} else {
				off += d
			}
		}
	}
	m["obs.trace_overhead_pct"] = 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	return m, notes, nil
}

// microReps is the calls per decode row, and in total per assemble row.
const microReps = 200

// timeStable times n calls of f and fails unless every result hashes
// the same as the first.
func timeStable(n int, f func() (any, error)) ([]float64, error) {
	xs := make([]float64, n)
	var want uint64
	for i := range xs {
		start := time.Now()
		v, err := f()
		xs[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		h.Write(b)
		if i == 0 {
			want = h.Sum64()
		} else if h.Sum64() != want {
			return nil, fmt.Errorf("output of call %d hashes %016x, the first %016x", i, h.Sum64(), want)
		}
	}
	return xs, nil
}

// generatedPrograms lists the seed's generated assembly sources: the
// dense kernels and the upload programs, as (path, source) pairs.
func generatedPrograms(seed uint64, instrScale float64) ([][2]string, error) {
	var out [][2]string
	for _, w := range []string{"taint-dense", "upload-open"} {
		set, err := generate(w, seed, instrScale)
		if err != nil {
			return nil, err
		}
		for _, in := range set.inputs {
			for _, p := range sortedKeys(in.spec.Programs) {
				out = append(out, [2]string{p, in.spec.Programs[p]})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// configFor is the run configuration the service gives in's job.
func configFor(in *input) hth.Config {
	cfg := hth.DefaultConfig()
	if in.spec.Tweak != nil {
		in.spec.Tweak(&cfg)
	}
	return cfg
}

// runBatch runs in once outside the service with an adjusted
// configuration, timing System.Run alone (the world is built first).
func runBatch(in *input, adjust func(*hth.Config)) (*hth.Result, time.Duration, error) {
	sys, err := buildWorld(in.spec)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", in.name, err)
	}
	cfg := configFor(in)
	adjust(&cfg)
	start := time.Now()
	res, err := sys.Run(cfg, hth.RunSpec{Path: in.spec.Path, Argv: in.spec.Argv, Env: in.spec.Env, Stdin: in.spec.Stdin})
	d := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", in.name, err)
	}
	return res, d, nil
}
