// Command egoviz extracts a radius-k ego network around a person from a
// collocation-network edge list, lays it out with the ForceAtlas2-style
// algorithm, and renders it to SVG — the paper's Figures 1-2 workflow
// (select individual → adjacent vertex sets V1, V2 → induced subgraph →
// Gephi Force Atlas 2).
//
// Usage:
//
//	egoviz -seed-person 123 -radius 2 -o ego.svg network.tsv
//	egoviz -seed-person 123 -radius 2 -o ego.svg net.gsnap
//
// The input may be a TSV edge list or a binary .gsnap snapshot; the
// format is sniffed from the file's magic bytes. With -seed-person -1,
// the vertex with the median degree is used.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/gstore"
	"repro/internal/layout"
)

func main() {
	person := flag.Int("seed-person", -1, "ego center (person ID); -1 = median-degree vertex")
	radius := flag.Int("radius", 2, "ego radius (graph hops)")
	out := flag.String("o", "ego.svg", "output SVG path")
	iters := flag.Int("iters", 150, "layout iterations")
	seed := flag.Uint64("seed", 1, "layout random seed")
	flag.Parse()
	cmdrun.Exit("egoviz", run(*person, *radius, *out, *iters, *seed))
}

func run(person, radius int, out string, iters int, seed uint64) error {
	if flag.NArg() != 1 {
		return errors.New("usage: egoviz [flags] network.tsv|net.gsnap")
	}
	snap, err := gstore.LoadGraphFile(flag.Arg(0), 0)
	if err != nil {
		return err
	}
	defer snap.Close()
	g := snap.Graph()

	center := uint32(0)
	if person >= 0 {
		if person >= g.NumVertices() {
			return fmt.Errorf("person %d not in network (max %d)", person, g.NumVertices()-1)
		}
		center = uint32(person)
	} else {
		// Median-degree vertex among those with edges.
		type dv struct {
			v uint32
			d int
		}
		var ds []dv
		for v := 0; v < g.NumVertices(); v++ {
			if d := g.Degree(uint32(v)); d > 0 {
				ds = append(ds, dv{uint32(v), d})
			}
		}
		if len(ds) == 0 {
			return errors.New("network has no edges")
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
		center = ds[len(ds)/2].v
	}

	ego := g.Ego(center, radius)
	sub, orig := g.Induced(ego)
	fmt.Printf("ego network of person %d (radius %d): %d nodes, %d edges\n",
		center, radius, sub.NumVertices(), sub.NumEdges())

	start := time.Now()
	pos := layout.Layout(sub, layout.Config{Iterations: iters, Seed: seed})
	fmt.Printf("layout: %d iterations in %s\n", iters, time.Since(start).Round(time.Millisecond))

	of, err := os.Create(out)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Ego network of person %d (radius %d): %d nodes, %d edges",
		center, radius, sub.NumVertices(), sub.NumEdges())
	if err := layout.WriteSVG(of, sub, pos, layout.SVGOptions{Title: title}); err != nil {
		of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d original IDs preserved in node order)\n", out, len(orig))
	return nil
}
