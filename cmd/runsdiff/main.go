// Command runsdiff compares two run manifests (cmd/reproduce -manifest) and
// classifies every difference: determinism-relevant drift (counter deltas,
// histogram count/bucket/sum deltas, funnel accounting drift, stage-sequence
// changes), quality warnings (per-stage wall-time regressions past 2x,
// unbalanced funnels), and expected run-to-run variation (environment, wall
// clock, gauges).
//
//	runsdiff golden_manifest.json manifest.json
//
// Exit status: 0 when the runs agree on everything deterministic, 1 on
// drift, 2 on usage or unreadable manifests. CI runs it against a checked-in
// golden manifest, so a same-seed reproduction that stops being byte-stable
// fails the build with the exact stage and reason in the log.
package main

import (
	"flag"
	"fmt"
	"os"

	"offnetrisk/internal/obs"
)

func main() {
	quiet := flag.Bool("q", false, "print drift only (suppress warnings and info)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: runsdiff [flags] <reference-manifest.json> <candidate-manifest.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	ref, err := obs.ReadManifest(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runsdiff:", err)
		os.Exit(2)
	}
	cand, err := obs.ReadManifest(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runsdiff:", err)
		os.Exit(2)
	}

	res := obs.CompareManifests(ref, cand)

	for _, d := range res.Drift {
		fmt.Println("drift:", d)
	}
	if !*quiet {
		for _, w := range res.Warnings {
			fmt.Println("warn: ", w)
		}
		for _, i := range res.Infos {
			fmt.Println("info: ", i)
		}
	}

	if res.HasDrift() {
		fmt.Printf("runsdiff: %d drift, %d warnings — runs are NOT deterministically equal\n",
			len(res.Drift), len(res.Warnings))
		os.Exit(1)
	}
	fmt.Printf("runsdiff: no drift (%d warnings, %d informational differences)\n",
		len(res.Warnings), len(res.Infos))
}
