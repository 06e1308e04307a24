// Failover: dynamic adaptation in action. An application streams through
// a composed pipeline; one of its hosts fail-stops; the origin's
// adaptation loop notices the delivery rate collapse, re-runs discovery,
// monitoring and min-cost composition (the dead host no longer answers
// the stats probe, so it is excluded), and the stream resumes on new
// hosts.
package main

import (
	"fmt"
	"log"
	"time"

	"rasc.dev/rasc"
)

func main() {
	sys := rasc.New(rasc.WithNodes(16), rasc.WithSeed(5))
	sys.EnableAdaptation(0, 3*time.Second)

	req := rasc.Request{
		ID:        "resilient",
		UnitBytes: 1250,
		Substreams: []rasc.Substream{
			{Services: []string{"filter", "compress"}, Rate: 10},
		},
	}
	comp, err := sys.Submit(0, req, rasc.ComposerMinCost)
	if err != nil {
		log.Fatalf("composition failed: %v", err)
	}
	fmt.Println("initial placement:")
	victim := -1
	for _, p := range comp.Placements() {
		fmt.Printf("  stage %d %-10s on %s\n", p.Stage, p.Service, p.Host.Addr)
		for i := 0; i < sys.Nodes(); i++ {
			if i != 0 && sys.NodeAddr(i) == string(p.Host.Addr) {
				victim = i
			}
		}
	}
	sys.Run(10 * time.Second)
	fmt.Printf("before failure: delivered %d units\n", comp.Stats().Received)

	fmt.Printf("\nkilling node %d...\n", victim)
	sys.Kill(victim)
	sys.Run(40 * time.Second) // adaptation notices, re-composes, resumes

	fmt.Printf("re-compositions: %d\n", sys.Recompositions(0))
	s := comp.Stats()
	fmt.Printf("after recovery: emitted %d, delivered %d units (%.1f%%)\n",
		s.Emitted, s.Received, 100*s.DeliveredFraction())
}
