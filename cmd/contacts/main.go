// Command contacts reconstructs a person's contact history from chiSIM
// event logs — the paper's Section II use case: "the log can be used to
// reconstruct all the agents that an agent had contact with over the
// course of an epidemic simulation".
//
// Usage:
//
//	contacts -person 123 -t0 0 -t1 168 [-top 20] logs/rank*.h5l
package main

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/cmdrun"
	"repro/internal/schedule"
	"repro/internal/trace"
)

func main() {
	person := flag.Int("person", 0, "person ID to query")
	t0 := flag.Uint("t0", 0, "window start hour (inclusive)")
	t1 := flag.Uint("t1", 168, "window end hour (exclusive)")
	top := flag.Int("top", 20, "show the N strongest contacts (0 = all)")
	flag.Parse()
	cmdrun.Exit("contacts", run(uint32(*person), uint32(*t0), uint32(*t1), *top))
}

func run(person, t0, t1 uint32, top int) error {
	if flag.NArg() == 0 {
		return errors.New("no log files given; usage: contacts [flags] logs/rank*.h5l")
	}
	ix, err := trace.FromFiles(flag.Args())
	if err != nil {
		return err
	}

	entries := ix.Entries(person, t0, t1)
	fmt.Printf("person %d: %d activity segments in window [%d,%d)\n",
		person, len(entries), t0, t1)
	for _, e := range entries {
		fmt.Printf("  hours %3d-%-3d  %-12s place %d\n",
			e.Start, e.Stop, schedule.ActivityName(e.Activity), e.Place)
	}

	cs := ix.Contacts(person, t0, t1)
	fmt.Printf("\n%d distinct contacts:\n", len(cs))
	shown := cs
	if top > 0 && len(shown) > top {
		shown = shown[:top]
	}
	for _, c := range shown {
		fmt.Printf("  person %-7d %3d shared hours (first at hour %d, place %d)\n",
			c.Person, c.Hours, c.FirstHour, c.Place)
	}
	if len(cs) > len(shown) {
		fmt.Printf("  ... and %d more\n", len(cs)-len(shown))
	}
	return nil
}
