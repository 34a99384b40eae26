package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"aergia/internal/experiments"
	"aergia/internal/runner"
)

// digestEntry pins the canonical record of one float64 job at the default
// seed: the float64 jobs of a workload's first sweep.
type digestEntry struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Backend    string `json:"backend"`
	SHA256     string `json:"sha256"`
}

// reference runs a job in process and returns its canonical record bytes:
// what the daemon must serve for the same options.
func reference(s jobSpec) ([]byte, error) {
	rec, err := experiments.Run(s.Experiment, s.Options)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", s.ID, err)
	}
	return rec.Marshal()
}

// references computes the records of specs, one goroutine per CPU of the
// closed loop, deduplicated by job ID.
func references(specs []jobSpec) (map[string][]byte, error) {
	unique := map[string]jobSpec{}
	for _, s := range specs {
		unique[s.ID] = s
	}
	todo := make(chan jobSpec, len(unique))
	for _, s := range unique {
		todo <- s
	}
	close(todo)
	var (
		mu    sync.Mutex
		out   = make(map[string][]byte, len(unique))
		first error
		wg    sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range todo {
				b, err := reference(s)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[s.ID] = b
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, first
}

// verify checks a phase's outcomes, untimed: every job must be done, and
// every checked result byte-identical to its in-process reference. Tiny
// workloads check every result; fl-sweep checks a seed-chosen sample. It
// returns how many jobs failed, were refused or mismatched.
func (b *bench) verify(w workload, ph *phase, label string) (int, error) {
	failed := 0
	var check []*jobResult
	for _, j := range ph.jobs {
		switch {
		case j.refused:
			failed++
		case j.status != string(runner.StatusDone):
			b.note("%s: job %s ended %q", label, j.spec.ID, j.status)
			failed++
		default:
			check = append(check, j)
		}
	}
	if w.sample > 0 {
		check = b.sample(check, w.sample)
	}
	specs := make([]jobSpec, len(check))
	for i, j := range check {
		specs[i] = j.spec
	}
	refs, err := references(specs)
	if err != nil {
		return 0, err
	}
	for _, j := range check {
		if !bytes.Equal(j.result, refs[j.spec.ID]) {
			j.mismatch = true
			b.note("%s: job %s served a record that differs from the in-process run", label, j.spec.ID)
			failed++
		}
	}
	b.note("%s: %d jobs observed, %d results checked byte-for-byte, %d failed", label, len(ph.jobs), len(check), failed)
	return failed, nil
}

// sample picks n jobs with distinct IDs, chosen by the workload seed.
func (b *bench) sample(jobs []*jobResult, n int) []*jobResult {
	rng := rand.New(rand.NewPCG(b.seed, 0x5a))
	seen := map[string]bool{}
	var out []*jobResult
	for _, i := range rng.Perm(len(jobs)) {
		if len(out) == n {
			break
		}
		if j := jobs[i]; !seen[j.spec.ID] {
			seen[j.spec.ID] = true
			out = append(out, j)
		}
	}
	return out
}

// digestSpecs lists the float64 jobs a workload's digests pin.
func digestSpecs(w workload) ([]jobSpec, error) {
	specs, err := w.sweep(defaultSeed, 0, 0).jobs()
	if err != nil {
		return nil, err
	}
	var out []jobSpec
	for _, s := range specs {
		if s.Options.Backend == "serial" {
			out = append(out, s)
		}
	}
	return out, nil
}

// checkDigests compares the records the daemon served for the workload's
// pinned float64 jobs with digests.json; it returns the number of pinned
// jobs whose served record is missing or differs.
func (b *bench) checkDigests(w workload, ph *phase) (int, error) {
	raw, err := os.ReadFile(filepath.Join(b.root, "perfbench", "digests.json"))
	if err != nil {
		return 0, err
	}
	var all map[string][]digestEntry
	if err := json.Unmarshal(raw, &all); err != nil {
		return 0, fmt.Errorf("digests.json: %w", err)
	}
	want := all[w.name]
	specs, err := digestSpecs(w)
	if err != nil {
		return 0, err
	}
	if len(want) != len(specs) {
		return 0, fmt.Errorf("digests.json has %d entries for %s, the workload pins %d", len(want), w.name, len(specs))
	}
	served := map[string][]byte{}
	for _, j := range ph.jobs {
		if j.result != nil {
			served[j.spec.ID] = j.result
		}
	}
	bad := 0
	for i, s := range specs {
		rec, ok := served[s.ID]
		sum := sha256.Sum256(rec)
		if !ok || want[i].ID != s.ID || want[i].SHA256 != hex.EncodeToString(sum[:]) {
			b.note("digest mismatch: %s served=%t (committed %s)", s.ID, ok, want[i].ID)
			bad++
		}
	}
	b.note("default seed: %d of %d served float64 records match digests.json", len(specs)-bad, len(specs))
	return bad, nil
}

// writeDigestFile regenerates digests.json. Run it only when a change is
// meant to alter the float64 records.
func writeDigestFile(path string) error {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	all := map[string][]digestEntry{}
	for _, n := range names {
		specs, err := digestSpecs(workloads[n])
		if err != nil {
			return err
		}
		refs, err := references(specs)
		if err != nil {
			return err
		}
		for _, s := range specs {
			sum := sha256.Sum256(refs[s.ID])
			all[n] = append(all[n], digestEntry{ID: s.ID, Experiment: s.Experiment,
				Seed: s.Options.Seed, Backend: s.Options.Backend, SHA256: hex.EncodeToString(sum[:])})
		}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
