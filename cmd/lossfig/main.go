// Command lossfig extends the paper's Figure 4 to a lossy channel: the
// number of 1 KB transactions a 26 KJ sensor-node battery funds as the
// link bit error rate rises, with the ARQ retransmission energy itemized
// in the battery ledger. The analytic model is cross-checked by running
// real transactions through the chaos fault injector and ARQ layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	mobilesec "repro"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	drop := flag.Float64("drop", 0.01, "BER-independent frame drop probability")
	bers := flag.String("bers", "", "comma-separated BER axis (default the built-in ladder)")
	simulate := flag.Bool("simulate", true,
		"cross-check by driving a real chaos+ARQ link; its goroutines run under real ARQ timers, so its table can differ between runs (the analytic figure cannot)")
	perPoint := flag.Int("n", 10, "transactions simulated per BER point")
	seed := flag.Int64("seed", 1, "fault-schedule seed for the simulation")
	csv := flag.Bool("csv", false, "emit the analytic figure as CSV and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"sweep worker count; -simulate=false output is identical at any value, 1 runs sequentially")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	par.SetDefaultWorkers(*workers)
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "lossfig: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	var axis []float64
	if *bers != "" {
		for _, s := range strings.Split(*bers, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lossfig: bad BER %q: %v\n", s, err)
				os.Exit(2)
			}
			axis = append(axis, v)
		}
	}

	fig, err := mobilesec.ComputeLossFigure(*drop, axis)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lossfig: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(fig.CSV())
		o.Finish("lossfig")
		return
	}
	fmt.Print(fig.Render())

	if *simulate {
		sim, err := mobilesec.SimulateLossFigure(*drop, axis, *seed, *perPoint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lossfig: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nchaos+ARQ link simulation cross-check (%d transactions per point, battery ledger per transaction):\n", *perPoint)
		fmt.Print(sim.Render())
	}

	fmt.Println("\ntakeaway: channel noise taxes the battery before it breaks the crypto —")
	fmt.Println("every decade of BER costs transactions, until the retry budget declares the link down")
	o.Finish("lossfig")
}
