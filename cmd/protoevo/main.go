// Command protoevo regenerates Figure 2 of the paper: the evolution
// timeline of the wired (IPSec, SSL/TLS) and wireless (WTLS, MET)
// security protocol families, with per-family revision rates.
package main

import (
	"flag"
	"fmt"
	"os"

	mobilesec "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	verbose := flag.Bool("v", false, "list every revision with its note")
	o := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "protoevo: %v\n", err)
		os.Exit(1)
	}
	defer o.Close()

	fmt.Print(mobilesec.RenderTimeline())
	fmt.Println()

	fmt.Println("revision rates (revisions per active year):")
	for _, fam := range core.Families() {
		rate, err := mobilesec.RevisionRate(fam)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protoevo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  %-8s %.2f/yr\n", fam, rate)
	}
	fmt.Println("\nwireless families start later and revise faster — the Section 3.1")
	fmt.Println("flexibility argument: security architectures must absorb new standards.")

	if *verbose {
		fmt.Println("\nfull revision list:")
		for _, r := range mobilesec.EvolutionTimeline() {
			fmt.Printf("  %7.1f  %-8s %-28s %s\n", r.Year, r.Family, r.Name, r.Note)
		}
	}
	o.Finish("protoevo")
}
