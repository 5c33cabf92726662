package hypergiant

import (
	"fmt"
	"testing"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
)

// deploySink keeps each benchmarked deployment live.
var deploySink *Deployment

// BenchmarkDeploy times one deployment at each epoch into a freshly
// generated world, at tiny and default scale (seed 42). Each iteration
// generates its world with the timer stopped: a deployment mutates its
// world, so it cannot be reused.
func BenchmarkDeploy(b *testing.B) {
	for _, scale := range []string{"tiny", "default"} {
		sp := scenario.MustLookup(scale)
		cfg := inet.ConfigFromScenario(sp, 42)
		dcfg := DeployConfigFromScenario(sp, 42)
		for _, epoch := range []Epoch{Epoch2021, Epoch2023} {
			b.Run(fmt.Sprintf("%s/%d", scale, epoch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := inet.Generate(cfg)
					b.StartTimer()
					d, err := Deploy(w, epoch, dcfg)
					if err != nil {
						b.Fatal(err)
					}
					deploySink = d
				}
			})
		}
	}
}
