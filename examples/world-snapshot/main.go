// World snapshot: spill a deployed synthetic Internet to a binary snapshot,
// stream it back, verify the restoration is faithful, and run an analysis
// against the restored world — the workflow for sharing reproducible
// worlds between machines.
//
//	go run ./examples/world-snapshot
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
)

func main() {
	log.SetFlags(0)
	const seed = 7
	sp := scenario.Default()

	// Build and deploy a world.
	cfg := inet.TinyConfig(seed)
	w := inet.Generate(cfg)
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated: %d ISPs, %d facilities, %d offnet servers\n",
		len(w.ISPs), len(w.Facilities), len(d.Servers))

	// Snapshot to disk. The file records the world config and scenario hash
	// it was built for; reading it back under any other is an error.
	dir, err := os.MkdirTemp("", "offnetrisk-world")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "world.ofnw")
	if err := inet.WriteWorldFile(path, w, cfg, sp.Hash()); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes\n", info.Size())

	// Restore and verify.
	restored, err := inet.ReadWorldFile(path, cfg, sp.Hash())
	if err != nil {
		log.Fatal(err)
	}
	if len(restored.ISPs) != len(w.ISPs) || len(restored.Facilities) != len(w.Facilities) ||
		len(restored.IXPs) != len(w.IXPs) {
		log.Fatalf("restore mismatch: %d/%d ISPs, %d/%d facilities, %d/%d exchanges",
			len(restored.ISPs), len(w.ISPs), len(restored.Facilities), len(w.Facilities),
			len(restored.IXPs), len(w.IXPs))
	}
	fmt.Println("restored: all ISPs, facilities, and exchanges intact")

	// The restored world supports the same pipelines: run the offnet
	// inference against a scan of the ORIGINAL deployment using the
	// RESTORED world's IP-to-AS mapping — they must agree exactly.
	records, err := scan.Simulate(d, scan.ConfigFromScenario(sp, seed))
	if err != nil {
		log.Fatal(err)
	}
	orig := offnetmap.Infer(w, records, offnetmap.Rules2023())
	again := offnetmap.Infer(restored, records, offnetmap.Rules2023())
	fmt.Printf("inference on original world: %d offnets; on restored world: %d offnets\n",
		len(orig.Offnets), len(again.Offnets))
	if len(orig.Offnets) != len(again.Offnets) {
		log.Fatal("restored world produced different inference")
	}
	fmt.Println("snapshot round trip verified ✔")
}
