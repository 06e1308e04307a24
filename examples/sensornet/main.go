// Sensornet: an on-line sensor analytics application with two parallel
// substreams — one aggregating and joining raw readings, one running an
// anomaly-analysis chain — both delivered to the monitoring station at
// their own rates, as in the paper's multi-substream request graphs
// (Figure 2).
package main

import (
	"fmt"
	"log"
	"time"

	"rasc.dev/rasc"
)

func main() {
	sys := rasc.New(rasc.WithNodes(24), rasc.WithSeed(11))

	req := rasc.Request{
		ID:        "sensornet",
		UnitBytes: 1250,
		Substreams: []rasc.Substream{
			// Substream 1: aggregate readings, join across sensors.
			{Services: []string{"aggregate", "join"}, Rate: 8},
			// Substream 2: analyze and annotate anomalies.
			{Services: []string{"analyze", "annotate"}, Rate: 4},
		},
	}
	comp, err := sys.Submit(3, req, rasc.ComposerMinCost)
	if err != nil {
		log.Fatalf("composition failed: %v", err)
	}
	fmt.Println("execution graph:")
	for _, p := range comp.Placements() {
		fmt.Printf("  substream %d stage %d %-10s on %s at %.0f units/sec\n",
			p.Substream, p.Stage, p.Service, p.Host.Addr, p.Rate)
	}

	// Stream for one virtual minute, sampling the node monitor of the
	// origin halfway through.
	sys.Run(30 * time.Second)
	rep := sys.NodeReport(3)
	fmt.Printf("\norigin node: %.0f/%.0f Kbps in use (in/out), drop ratio %.3f\n",
		rep.InBpsUsed/1000, rep.OutBpsUsed/1000, rep.DropRatio)
	sys.Run(30 * time.Second)

	s := comp.Stats()
	fmt.Printf("\nboth substreams: delivered %.1f%% of %d units, %.1f%% timely\n",
		100*s.DeliveredFraction(), s.Emitted, 100*s.TimelyFraction())
	fmt.Printf("mean delay %v, mean jitter %v\n",
		s.MeanDelay.Round(time.Millisecond), s.MeanJitter.Round(time.Millisecond))

	// Shut the application down and verify the components disappear.
	comp.Stop()
	fmt.Println("application stopped")
}
