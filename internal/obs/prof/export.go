package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Weight selects which of a frame's two weights a view renders.
type Weight string

// The two frame weights.
const (
	Cycles Weight = "cycles"
	Energy Weight = "energy"
)

// ParseWeight validates a -weight style flag value. "auto" (and "")
// resolve to Energy when the profile carries any energy, else Cycles.
func ParseWeight(s string, p *Profile) (Weight, error) {
	switch s {
	case "cycles":
		return Cycles, nil
	case "energy":
		return Energy, nil
	case "", "auto":
		_, uj := p.Totals()
		if uj > 0 {
			return Energy, nil
		}
		return Cycles, nil
	}
	return "", fmt.Errorf("prof: unknown weight %q (want cycles, energy or auto)", s)
}

// FrameValue is one exported frame: its full '/'-separated path and
// *self* weights (descendants are separate entries).
type FrameValue struct {
	Path     string `json:"path"`
	Cycles   int64  `json:"cycles,omitempty"`
	EnergyUJ int64  `json:"energy_uj,omitempty"`
}

// Profile is a deterministic point-in-time export of a profiler:
// every frame with nonzero self weight, sorted by path.
type Profile struct {
	GoVersion string       `json:"go_version"`
	Frames    []FrameValue `json:"frames"`
}

// Snapshot exports the profiler's current call tree.
func (p *Profiler) Snapshot() *Profile {
	out := &Profile{GoVersion: runtime.Version()}
	if p == nil {
		return out
	}
	var walk func(n *node, path string)
	walk = func(n *node, path string) {
		if c, uj := n.cycles.Load(), n.energyUJ.Load(); (c != 0 || uj != 0) && path != "" {
			out.Frames = append(out.Frames, FrameValue{Path: path, Cycles: c, EnergyUJ: uj})
		}
		n.mu.Lock()
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		children := make([]*node, 0, len(names))
		sort.Strings(names)
		for _, name := range names {
			children = append(children, n.children[name])
		}
		n.mu.Unlock()
		for _, c := range children {
			cp := c.name
			if path != "" {
				cp = path + "/" + c.name
			}
			walk(c, cp)
		}
	}
	walk(&p.root, "")
	sort.Slice(out.Frames, func(i, j int) bool { return out.Frames[i].Path < out.Frames[j].Path })
	return out
}

// WriteJSON serializes the snapshot as indented JSON.
func (p *Profiler) WriteJSON(w io.Writer) error { return p.Snapshot().WriteJSON(w) }

// WriteJSON serializes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	cp := *p
	if cp.Frames == nil {
		cp.Frames = []FrameValue{}
	}
	blob, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// Load reads a profile JSON file written by WriteJSON.
func Load(path string) (*Profile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("prof: %s: %w", path, err)
	}
	return &p, nil
}

// Merge sums any number of profiles frame-by-frame (matching on path).
// The result is sorted by path; GoVersion is taken from the first
// non-empty input.
func Merge(profiles ...*Profile) *Profile {
	out := &Profile{}
	byPath := map[string]*FrameValue{}
	var order []string
	for _, p := range profiles {
		if p == nil {
			continue
		}
		if out.GoVersion == "" {
			out.GoVersion = p.GoVersion
		}
		for _, f := range p.Frames {
			fv, ok := byPath[f.Path]
			if !ok {
				fv = &FrameValue{Path: f.Path}
				byPath[f.Path] = fv
				order = append(order, f.Path)
			}
			fv.Cycles += f.Cycles
			fv.EnergyUJ += f.EnergyUJ
		}
	}
	sort.Strings(order)
	for _, path := range order {
		out.Frames = append(out.Frames, *byPath[path])
	}
	return out
}

// Totals returns the profile-wide cycle and energy sums.
func (p *Profile) Totals() (cycles, energyUJ int64) {
	for _, f := range p.Frames {
		cycles += f.Cycles
		energyUJ += f.EnergyUJ
	}
	return
}

// value picks one weight from a frame.
func (f *FrameValue) value(by Weight) int64 {
	if by == Energy {
		return f.EnergyUJ
	}
	return f.Cycles
}

// WriteFolded renders the profile as folded stacks — one line per
// frame with nonzero self weight, semicolon-separated frame names
// followed by the integer weight — the input format of standard
// flamegraph tooling (flamegraph.pl, speedscope, inferno). Energy
// weights are microjoules; cycle weights are modeled instructions.
func (p *Profile) WriteFolded(w io.Writer, by Weight) error {
	for _, f := range p.Frames {
		v := f.value(by)
		if v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.ReplaceAll(f.Path, "/", ";"), v); err != nil {
			return err
		}
	}
	return nil
}

// TopRow is one frame name's aggregate in a Top table. Flat is the
// self weight summed over every path ending in the name; Cum adds
// each such frame's descendants — the pprof flat/cum convention.
type TopRow struct {
	Name        string
	FlatCycles  int64
	CumCycles   int64
	FlatUJ      int64
	CumUJ       int64
	CumFraction float64 // of the profile total, by the requested weight
}

// Top aggregates the profile per frame name and returns rows sorted by
// cumulative weight (descending; ties break by name so the table is
// deterministic). A frame name's cumulative weight counts each
// profile entry at most once, even when the name repeats on a path.
func (p *Profile) Top(by Weight) []TopRow {
	rows := map[string]*TopRow{}
	row := func(name string) *TopRow {
		r, ok := rows[name]
		if !ok {
			r = &TopRow{Name: name}
			rows[name] = r
		}
		return r
	}
	for _, f := range p.Frames {
		parts := strings.Split(f.Path, "/")
		leaf := row(parts[len(parts)-1])
		leaf.FlatCycles += f.Cycles
		leaf.FlatUJ += f.EnergyUJ
		seen := map[string]bool{}
		for _, name := range parts {
			if seen[name] {
				continue
			}
			seen[name] = true
			r := row(name)
			r.CumCycles += f.Cycles
			r.CumUJ += f.EnergyUJ
		}
	}
	totalCycles, totalUJ := p.Totals()
	out := make([]TopRow, 0, len(rows))
	for _, r := range rows {
		total, cum := totalCycles, r.CumCycles
		if by == Energy {
			total, cum = totalUJ, r.CumUJ
		}
		if total > 0 {
			r.CumFraction = float64(cum) / float64(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i].CumCycles, out[j].CumCycles
		if by == Energy {
			vi, vj = out[i].CumUJ, out[j].CumUJ
		}
		if vi != vj {
			return vi > vj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteTop renders the top-n table for one weight as aligned text.
func (p *Profile) WriteTop(w io.Writer, by Weight, n int) error {
	rows := p.Top(by)
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	unit := "instr"
	if by == Energy {
		unit = "µJ"
	}
	if _, err := fmt.Fprintf(w, "%-40s %16s %16s %7s\n",
		"frame", "flat "+unit, "cum "+unit, "cum%"); err != nil {
		return err
	}
	for _, r := range rows {
		flat, cum := r.FlatCycles, r.CumCycles
		if by == Energy {
			flat, cum = r.FlatUJ, r.CumUJ
		}
		if _, err := fmt.Fprintf(w, "%-40s %16d %16d %6.1f%%\n",
			r.Name, flat, cum, r.CumFraction*100); err != nil {
			return err
		}
	}
	return nil
}
