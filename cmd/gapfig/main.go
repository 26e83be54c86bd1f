// Command gapfig regenerates Figure 3 of the paper: the wireless security
// processing gap — the MIPS a security protocol demands across connection
// latencies and data rates, against an embedded processor's supply plane —
// plus the Section 4.2 accelerator ablation that closes the gap.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	mobilesec "repro"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	plane := flag.Float64("plane", 300, "supply plane in MIPS (the paper draws 300)")
	cipher := flag.String("cipher", "3des", "bulk cipher: 3des, des, aes128, rc4, rc2")
	mac := flag.String("mac", "sha1", "MAC hash: sha1, md5")
	handshake := flag.String("handshake", "rsa1024", "connection set-up: rsa1024, rsa768, rsa512, dh1024, resume")
	ablate := flag.Bool("ablation", true, "also print the accelerator ablation (experiment B1)")
	csv := flag.Bool("csv", false, "emit the surface as CSV for external plotting and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"sweep worker count; output is identical at any value, 1 runs sequentially")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetDefaultWorkers(*workers)
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "gapfig: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	s, err := mobilesec.ComputeGapSurfaceFor(
		mobilesec.DefaultLatencies(), mobilesec.DefaultRates(), *plane,
		cost.HandshakeKind(*handshake), cost.Algorithm(*cipher), cost.Algorithm(*mac))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapfig: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(s.CSV())
		o.Finish("gapfig")
		return
	}
	fmt.Print(s.Render())

	fmt.Println("\nprocessor catalog vs the same workload (max sustainable Mbps at 0.5 s latency):")
	for _, cpu := range mobilesec.ProcessorCatalog() {
		arch := mobilesec.SoftwareOnly(cpu)
		rate, err := arch.MaxRateMbps(0.5, cost.HandshakeKind(*handshake),
			cost.Algorithm(*cipher), cost.Algorithm(*mac))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapfig: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  %-20s %7.1f MIPS  -> %8.2f Mbps\n", cpu.Name, cpu.MIPS, rate)
	}

	if *ablate {
		cpu, err := mobilesec.ProcessorByName("StrongARM-SA1100")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapfig: %v\n", err)
			os.Exit(1)
		}
		rows, err := mobilesec.AcceleratorAblation(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapfig: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nexperiment B1 — closing the gap on the %s (0.5 s latency, 10 Mbps, 3DES+SHA):\n", cpu.Name)
		fmt.Printf("  %-16s %14s %9s %14s\n", "architecture", "demand (MIPS)", "feasible", "max rate Mbps")
		for _, r := range rows {
			fmt.Printf("  %-16s %14.1f %9v %14.1f\n", r.Arch, r.DemandMIPS, r.Feasible, r.MaxRateMbps)
		}
	}
	o.Finish("gapfig")
}
