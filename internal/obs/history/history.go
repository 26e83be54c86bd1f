// Package history is the cross-run record book: an append-only JSONL
// file (one JSON object per line, conventionally bench/history.jsonl)
// that benchreg and msreport add a Record to after each run. It ties
// every headline figure back to the commit, Go toolchain, seed and
// configuration that produced it, so a regression spotted in a trend
// table is immediately attributable.
package history

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// ErrDuplicate reports an AppendUnique refused because the history
// already holds a record for the same (commit, fingerprint) pair.
var ErrDuplicate = errors.New("history: record for this commit and configuration already exists")

// Record is one run's entry in the history file.
type Record struct {
	// Date is the run's UTC date (YYYY-MM-DD).
	Date string `json:"date"`
	// Source names the tool that appended the record (benchreg,
	// msreport, ...).
	Source string `json:"source"`
	// Commit is the repository HEAD at run time ("unknown" outside a
	// git checkout).
	Commit string `json:"commit"`
	// GoVersion is the toolchain that built the run.
	GoVersion string `json:"go_version"`
	// NumCPU is the host's logical core count, when the source records
	// it.
	NumCPU int `json:"num_cpu,omitempty"`
	// Seed identifies the workload seed, when one applies.
	Seed string `json:"seed,omitempty"`
	// Fingerprint is a short digest of the run configuration (see
	// Fingerprint), so records from different setups never get
	// compared as a trend.
	Fingerprint string `json:"config_fingerprint,omitempty"`
	// Headline holds the run's named figures (benchmark ns/op, total
	// modeled energy, gap fractions, ...).
	Headline map[string]float64 `json:"headline,omitempty"`
	// LayerEnergyUJ attributes the run's modeled energy per top-level
	// profile frame.
	LayerEnergyUJ map[string]int64 `json:"layer_energy_uj,omitempty"`
}

// Fingerprint digests the given configuration strings into a short,
// stable hex token.
func Fingerprint(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return fmt.Sprintf("%x", sum[:6])
}

// Commit returns the abbreviated git HEAD of the working directory, or
// "unknown" when git (or the repository) is unavailable.
func Commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Today returns the UTC date stamp used for Record.Date.
func Today() string { return time.Now().UTC().Format("2006-01-02") }

// Append adds one record to the JSONL file at path, creating the file
// and its directory as needed.
func Append(path string, r Record) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("history: %w", err)
		}
	}
	blob, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("history: %w", err)
	}
	return f.Close()
}

// Valid reports whether a record carries the minimum identifying
// information a trend view needs: the date and the tool that wrote it.
func (r Record) Valid() bool { return r.Date != "" && r.Source != "" }

// Load reads every valid record from the JSONL file at path, in file
// order, and reports how many lines it skipped (unparseable JSON or
// records failing Valid). A missing file is an empty history, not an
// error; skipping keeps one bad append from poisoning the trend view,
// and the count keeps the skipping from being silent.
func Load(path string) ([]Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	var out []Record
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil || !r.Valid() {
			skipped++
			continue
		}
		out = append(out, r)
	}
	return out, skipped, sc.Err()
}

// AppendUnique appends r unless the history already holds a record with
// the same (Commit, Fingerprint) pair, in which case it returns
// ErrDuplicate. Re-running a report on an unchanged checkout therefore
// cannot inflate the trend tables with identical points. Records with an
// unknown commit are exempt — outside a git checkout every run would
// collide.
func AppendUnique(path string, r Record) error {
	if r.Commit != "" && r.Commit != "unknown" {
		existing, _, err := Load(path)
		if err != nil {
			return err
		}
		for _, e := range existing {
			if e.Commit == r.Commit && e.Fingerprint == r.Fingerprint {
				return fmt.Errorf("%w (commit %s, config %s)", ErrDuplicate, r.Commit, r.Fingerprint)
			}
		}
	}
	return Append(path, r)
}
