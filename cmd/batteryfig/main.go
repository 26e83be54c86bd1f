// Command batteryfig regenerates Figure 4 of the paper: the number of
// 1 KB transactions a 26 KJ sensor-node battery funds with and without
// RSA-based secure mode, analytically and by transaction-level simulation.
package main

import (
	"flag"
	"fmt"
	"os"

	mobilesec "repro"
	"repro/internal/obs"
)

func main() {
	simulate := flag.Bool("simulate", true, "cross-check by draining the battery model")
	step := flag.Int("step", 100, "simulation batching (1 = exact, slower)")
	csv := flag.Bool("csv", false, "emit the figure as CSV and exit")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "batteryfig: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	fig, err := mobilesec.ComputeBatteryFigure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "batteryfig: %v\n", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(fig.CSV())
		o.Finish("batteryfig")
		return
	}
	fmt.Print(fig.Render())

	if *simulate {
		sim, err := mobilesec.SimulateBatteryFigure(*step)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batteryfig: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("\ntransaction-level simulation cross-check:")
		for i, m := range sim.Modes {
			fmt.Printf("  %-14s simulated %8d tx (analytic %8d)\n",
				m.Name, m.Transactions, fig.Modes[i].Transactions)
		}
	}
	fmt.Printf("\npaper claim: secure-mode transactions are less than half of plain mode — measured %.2fx\n",
		fig.Modes[1].RelativeToPlain)
	o.Finish("batteryfig")
}
