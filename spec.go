package hfstream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hfstream/internal/exp"
)

// Spec describes one simulation request as plain data: which benchmark,
// which design point, and which run mode. It is the request schema of the
// serve package and the unit of result caching. Canonical renders a
// normalized byte form (names resolved to their canonical labels, zero
// fields dropped, fixed field order) and Key hashes it, so two Specs that
// mean the same run always produce the same key. The simulator is
// deterministic end to end (see RESILIENCE.md), so a Spec's key fully
// determines its metrics output — the property that makes caching served
// results sound.
type Spec struct {
	// Bench names the workload (see BenchmarkByName).
	Bench string `json:"bench"`
	// Design names the design point (see DesignByName). Required unless
	// Single is set, in which case it must be empty: the single-threaded
	// baseline always runs on the EXISTING machine, and silently accepting
	// a design would alias two different-looking requests.
	Design string `json:"design,omitempty"`
	// Single runs the unpartitioned single-threaded baseline instead of
	// the pipelined two-thread version.
	Single bool `json:"single,omitempty"`
	// Stages, when >= 2, partitions the kernel into that many pipeline
	// stages (see RunStaged); 0 is the standard two-thread run. 1 is
	// rejected rather than aliased to either mode.
	Stages int `json:"stages,omitempty"`
}

// Normalize validates the spec and returns a copy with every name
// resolved to its canonical label, so that any two specs describing the
// same run normalize to identical values.
func (s Spec) Normalize() (Spec, error) {
	n, _, _, err := s.resolve()
	return n, err
}

// resolve is Normalize that also returns the resolved benchmark and
// design (the zero Design for a single-threaded spec).
func (s Spec) resolve() (Spec, Benchmark, Design, error) {
	b, err := BenchmarkByName(s.Bench)
	if err != nil {
		return Spec{}, Benchmark{}, Design{}, err
	}
	s.Bench = b.Name()
	if s.Stages < 0 || s.Stages == 1 {
		return Spec{}, Benchmark{}, Design{}, fmt.Errorf("hfstream: spec stages must be 0 (pipelined) or >= 2, got %d", s.Stages)
	}
	if s.Single {
		if s.Design != "" {
			return Spec{}, Benchmark{}, Design{}, fmt.Errorf("hfstream: single-threaded spec must not name a design (got %q; the baseline always runs on EXISTING)", s.Design)
		}
		if s.Stages != 0 {
			return Spec{}, Benchmark{}, Design{}, fmt.Errorf("hfstream: single-threaded spec cannot be staged (stages=%d)", s.Stages)
		}
		return s, b, Design{}, nil
	}
	d, err := DesignByName(s.Design)
	if err != nil {
		return Spec{}, Benchmark{}, Design{}, err
	}
	if s.Stages >= 2 && (d.cfg.Cores >= 3 || d.cfg.Parallel) {
		return Spec{}, Benchmark{}, Design{}, fmt.Errorf("hfstream: spec stages=%d conflicts with multi-core design %q (its core count is part of the design name)", s.Stages, d.Name())
	}
	s.Design = d.Name()
	return s, b, d, nil
}

// Canonical returns the spec's canonical byte form: the normalized spec
// marshaled as compact JSON with struct-declaration field order. Two
// specs describing the same run — whatever field order, name alias or
// explicit zero value they were written with — canonicalize to the same
// bytes.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Key returns the spec's content address: the lowercase hex SHA-256 of
// its canonical form. Because the simulator is deterministic, the key
// fully determines the run's metrics snapshot.
func (s Spec) Key() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// RunCtx executes the described run: the single-threaded baseline for
// Single, a Stages-deep pipeline when Stages >= 2, and the design's
// standard run otherwise. Options pass through unchanged, so a Spec
// round-tripped through the serve package produces byte-identical
// WithMetrics output to calling the API directly.
func (s Spec) RunCtx(ctx context.Context, opts ...RunOpt) (Result, error) {
	n, b, d, err := s.resolve()
	if err != nil {
		return Result{}, err
	}
	return run(ctx, b, exp.Job{Config: d.cfg, Single: n.Single, Stages: n.Stages}, opts)
}
