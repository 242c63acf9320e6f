// Command sosviz synthesizes a design and renders it as an SVG document:
// architecture diagram plus Gantt chart (the graphical analogue of the
// paper's Figure 2).
//
// Usage:
//
//	sosviz -example 1 -cost-cap 14 -o design.svg
//	sosviz -spec problem.json -topology bus -o design.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sos"
	"sos/internal/arch"
	"sos/internal/expts"
	"sos/internal/specfile"
	"sos/internal/taskgraph"
	"sos/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sosviz: ")
	var (
		specPath = flag.String("spec", "", "JSON problem specification (see cmd/sos)")
		example  = flag.Int("example", 0, "run the paper's Example 1 or 2")
		topoName = flag.String("topology", "p2p", "p2p, bus, ring, or shmem")
		costCap  = flag.Float64("cost-cap", 0, "total system cost bound")
		budget   = flag.Duration("budget", 5*time.Minute, "solver time budget")
		width    = flag.Int("width", 960, "SVG width in pixels")
		out      = flag.String("o", "design.svg", "output SVG path")
	)
	flag.Parse()

	var g *taskgraph.Graph
	var lib *arch.Library
	var pool *sos.Pool
	switch {
	case *example == 1:
		g, lib = expts.Example1()
		pool = expts.Example1Pool(lib)
	case *example == 2:
		g, lib = expts.Example2()
		pool = expts.Example2Pool(lib)
	case *specPath != "":
		sf, err := specfile.Load(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		g, lib = sf.Graph, sf.Library
		pool = sf.Instances()
	default:
		flag.Usage()
		os.Exit(2)
	}

	topo, err := arch.ParseTopology(*topoName, 0)
	if err != nil {
		log.Fatalf("unknown topology %q", *topoName)
	}
	spec := sos.Spec{Graph: g, Library: lib, Pool: pool, Topology: topo, CostCap: *costCap, Budget: *budget}
	res, err := sos.Synthesize(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	if res.Design == nil {
		log.Fatal("no feasible design")
	}
	svg := viz.SVG(res.Design, *width)
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%s)\n", *out, res.Design)
}
