package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prof"
	"repro/internal/par"
	"repro/internal/proc"
)

// pGapRoot anchors the Figure 3 cycle attribution; per-workload child
// frames are entered once per surface evaluation.
var pGapRoot = prof.Frame("core.GapSurface")

// Figure-level metric handles; disarmed by default.
var (
	mGapCells      = obs.C("core.gap_cells")
	mAblationRows  = obs.C("core.ablation_rows")
	mLossPoints    = obs.C("core.loss_points")
	mLossSimTx     = obs.C("core.loss_sim_transactions")
	mLossSimJ      = obs.C("core.loss_sim_drained_uj")
	mLossLinkDowns = obs.C("core.loss_link_downs")
)

// GapPoint is one cell of the Figure 3 surface.
type GapPoint struct {
	LatencySec float64
	RateMbps   float64
	DemandMIPS float64
}

// GapSurface is the Figure 3 demand surface: security-processing MIPS as
// a function of connection latency and bulk data rate, compared against a
// processor's supply plane.
type GapSurface struct {
	Latencies []float64
	Rates     []float64
	Points    [][]GapPoint // [latency][rate]
	PlaneMIPS float64
	Handshake cost.HandshakeKind
	Cipher    cost.Algorithm
	MAC       cost.Algorithm
}

// DefaultLatencies are the connection-latency targets of Figure 3.
func DefaultLatencies() []float64 { return []float64{0.1, 0.2, 0.3, 0.5, 0.7, 1.0} }

// DefaultRates are the data rates of Figure 3 (Mbps), spanning the
// paper's "2-60 Mbps current and emerging wireless LAN" range from below.
func DefaultRates() []float64 { return []float64{0.1, 0.5, 1, 2, 5, 10, 20, 40, 60} }

// ComputeGapSurface evaluates the demand surface for the paper's
// reference protocol (RSA-1024 set-up, 3DES bulk cipher, SHA integrity)
// against a supply plane in MIPS (the paper draws 300).
func ComputeGapSurface(latencies, rates []float64, planeMIPS float64) (*GapSurface, error) {
	return ComputeGapSurfaceFor(latencies, rates, planeMIPS,
		cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
}

// ComputeGapSurfaceFor evaluates the surface for an arbitrary workload.
func ComputeGapSurfaceFor(latencies, rates []float64, planeMIPS float64,
	hs cost.HandshakeKind, cipher, mac cost.Algorithm) (*GapSurface, error) {
	if len(latencies) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("core: empty latency or rate axis")
	}
	s := &GapSurface{
		Latencies: latencies, Rates: rates, PlaneMIPS: planeMIPS,
		Handshake: hs, Cipher: cipher, MAC: mac,
	}
	s.Points = make([][]GapPoint, len(latencies))
	for i := range s.Points {
		s.Points[i] = make([]GapPoint, len(rates))
	}
	// Cycle attribution per cell: one connection set-up plus one second
	// of bulk traffic at the cell's rate, split by kernel. Entered once
	// per surface so the grid workers only do atomic adds — the sums are
	// order-independent, keeping exports byte-identical at any worker
	// count.
	var pHS, pBulkCipher, pBulkMAC prof.Span
	var hsInstr float64
	if prof.Enabled() {
		pHS = pGapRoot.Enter("handshake/" + cost.HandshakeKernel(hs))
		pBulkCipher = pGapRoot.Enter("bulk/" + string(cipher))
		pBulkMAC = pGapRoot.Enter("bulk/" + string(mac))
		hsInstr, _ = cost.HandshakeInstr(hs)
	}
	// Every cell is independent, so the grid fans out across the sweep
	// worker pool; each worker writes its own (latency, rate) slot, which
	// keeps the surface layout identical to the sequential fill.
	// Sweep roots take their trace ID from the sweep's seed (0 when it
	// has none) and size, never from the clock or goroutine order, so the
	// span export is the same at any worker count.
	cells := int64(len(latencies) * len(rates))
	sp := obs.DefaultDTracer.Root(obs.TraceID(0, cells), "core", "gap_surface")
	sp.SetN(cells)
	defer sp.End()
	// Cell events take t_sim from the row-major cell index the worker
	// already knows, so the merged journal is worker-count independent.
	jdebug := journal.On(journal.LevelDebug)
	err := par.Grid(context.Background(), par.DefaultWorkers(), len(latencies), len(rates),
		func(li, ri int) error {
			d, err := cost.DemandMIPS(latencies[li], rates[ri], hs, cipher, mac)
			if err != nil {
				return err
			}
			mGapCells.Inc()
			if jdebug {
				journal.Emit(int64(li*len(rates)+ri), journal.LevelDebug, "core", "gap_cell",
					journal.F("latency_s", latencies[li]),
					journal.F("rate_mbps", rates[ri]),
					journal.F("demand_mips", d))
			}
			if pHS.Active() {
				bytesPerSec := rates[ri] * 1e6 / 8
				pHS.AddCycles(int64(hsInstr))
				pBulkCipher.AddCycles(int64(bytesPerSec * cost.InstrPerByte(cipher)))
				pBulkMAC.AddCycles(int64(bytesPerSec * cost.InstrPerByte(mac)))
			}
			s.Points[li][ri] = GapPoint{LatencySec: latencies[li], RateMbps: rates[ri], DemandMIPS: d}
			return nil
		})
	if err != nil {
		return nil, err
	}
	maxDemand := 0.0
	for _, row := range s.Points {
		for _, p := range row {
			if p.DemandMIPS > maxDemand {
				maxDemand = p.DemandMIPS
			}
		}
	}
	// The demand/supply gauges are the inputs of the processing-gap SLO
	// rule; registered lazily here so they only exist in runs that
	// actually evaluate a surface.
	obs.G("core.gap_demand_mips_max").Set(maxDemand)
	obs.G("core.gap_plane_mips").Set(planeMIPS)
	obs.G("core.gap_fraction").Set(s.GapFraction())
	journal.Emit(int64(len(latencies)*len(rates)), journal.LevelInfo, "core", "gap_summary",
		journal.F("max_demand_mips", maxDemand),
		journal.F("plane_mips", planeMIPS),
		journal.F("gap_fraction", s.GapFraction()))
	return s, nil
}

// GapFraction returns the fraction of surface points above the supply
// plane — how much of the operating envelope is infeasible.
func (s *GapSurface) GapFraction() float64 {
	total, above := 0, 0
	for _, row := range s.Points {
		for _, p := range row {
			total++
			if p.DemandMIPS > s.PlaneMIPS {
				above++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(above) / float64(total)
}

// MaxFeasibleRate returns, for a latency row, the largest configured rate
// under the plane (0 if none).
func (s *GapSurface) MaxFeasibleRate(latency float64) float64 {
	best := 0.0
	for _, row := range s.Points {
		for _, p := range row {
			if p.LatencySec == latency && p.DemandMIPS <= s.PlaneMIPS && p.RateMbps > best {
				best = p.RateMbps
			}
		}
	}
	return best
}

// Render prints the surface as the table Figure 3 visualizes: demand MIPS
// per (latency, rate), with '*' marking points above the plane.
func (s *GapSurface) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3 — wireless security processing gap\n")
	fmt.Fprintf(&sb, "workload: %s set-up + %s/%s bulk; supply plane %.0f MIPS\n",
		s.Handshake, s.Cipher, s.MAC, s.PlaneMIPS)
	fmt.Fprintf(&sb, "%-12s", "latency\\rate")
	for _, r := range s.Rates {
		fmt.Fprintf(&sb, "%9.1fM", r)
	}
	sb.WriteString("\n")
	for i, l := range s.Latencies {
		fmt.Fprintf(&sb, "%9.2f s ", l)
		for _, p := range s.Points[i] {
			marker := " "
			if p.DemandMIPS > s.PlaneMIPS {
				marker = "*"
			}
			fmt.Fprintf(&sb, "%9.1f%s", p.DemandMIPS, marker)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "'*' = above the %.0f-MIPS plane (the gap); %.0f%% of the envelope is infeasible\n",
		s.PlaneMIPS, s.GapFraction()*100)
	return sb.String()
}

// CSV renders the surface as comma-separated series (one row per
// latency), for external plotting of Figure 3.
func (s *GapSurface) CSV() string {
	var sb strings.Builder
	sb.WriteString("latency_s")
	for _, r := range s.Rates {
		fmt.Fprintf(&sb, ",%g_mbps", r)
	}
	sb.WriteString("\n")
	for i, l := range s.Latencies {
		fmt.Fprintf(&sb, "%g", l)
		for _, p := range s.Points[i] {
			fmt.Fprintf(&sb, ",%.2f", p.DemandMIPS)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ArchitectureGapRow summarizes one architecture's ability to close the
// gap (experiment B1): effective demand at the Figure 3 anchor point and
// the maximum rate it can sustain.
type ArchitectureGapRow struct {
	Arch            string
	DemandMIPS      float64 // at 0.5 s latency, 10 Mbps
	Feasible        bool
	MaxRateMbps     float64 // at 0.5 s latency
	EnergyGainTimes float64
}

// AcceleratorAblation evaluates the Section 4.2 architecture ladder on a
// CPU at the Figure 3 anchor workload.
func AcceleratorAblation(cpu *proc.Processor) ([]ArchitectureGapRow, error) {
	archs := proc.Ablation(cpu)
	sp := obs.DefaultDTracer.Root(obs.TraceID(0, int64(len(archs))), "core", "accelerator_ablation")
	defer sp.End()
	return par.Map(context.Background(), par.DefaultWorkers(), archs,
		func(_ int, arch *proc.Architecture) (ArchitectureGapRow, error) {
			mAblationRows.Inc()
			d, err := arch.EffectiveDemandMIPS(0.5, 10, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
			if err != nil {
				return ArchitectureGapRow{}, err
			}
			rate, err := arch.MaxRateMbps(0.5, cost.HandshakeRSA1024, cost.DES3, cost.SHA1)
			if err != nil {
				return ArchitectureGapRow{}, err
			}
			return ArchitectureGapRow{
				Arch:            arch.Name,
				DemandMIPS:      d,
				Feasible:        d <= cpu.MIPS,
				MaxRateMbps:     rate,
				EnergyGainTimes: arch.EnergyGainGain,
			}, nil
		})
}
