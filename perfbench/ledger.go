package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ledger keeps the exact results of earlier runs of the same build of
// this binary (simulated counts, serve counters, a digest of every cell's
// metrics bytes), so each run checks that they repeat across processes as
// well as within one. The file is keyed by the binary's sha256: the same
// source builds the same binary, and any change to the program or the
// benchmark starts a new ledger. A value that moves between two runs of
// one build points to nondeterminism in the program or a benchmark bug.
type ledger struct {
	path    string
	entries map[string]string
	added   bool
}

func openLedger(dir string) (*ledger, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	l := &ledger{
		path:    filepath.Join(dir, "ledger", hex.EncodeToString(h.Sum(nil))[:16]+".json"),
		entries: map[string]string{},
	}
	buf, err := os.ReadFile(l.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return l, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(buf, &l.entries); err != nil {
		return nil, fmt.Errorf("%s: %w", l.path, err)
	}
	return l, nil
}

// check records v under key, or, when an earlier run of this build
// recorded a value there, reports a problem unless v equals it.
func (l *ledger) check(r *run, key string, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		r.problem("ledger %s: %v", key, err)
		return
	}
	if old, ok := l.entries[key]; ok {
		if old != string(buf) {
			r.problem("%s moved between runs of the same build: %s before, %s now", key, old, buf)
		}
		return
	}
	l.entries[key] = string(buf)
	l.added = true
}

// checkBodies records the sha256 of every cell's metrics bytes.
func (l *ledger) checkBodies(r *run, refs map[string]ref) {
	for label, ref := range refs {
		sum := sha256.Sum256(ref.body)
		l.check(r, "cell/"+label, hex.EncodeToString(sum[:]))
	}
}

// save writes the ledger if this run added to it, replacing the file
// whole so an interrupted run cannot leave it half written.
func (l *ledger) save() error {
	if !l.added {
		return nil
	}
	buf, err := json.MarshalIndent(l.entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}
