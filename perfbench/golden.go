package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json pins, for every seed a run can select, the exact counters
// the seed commit produced: campaign counters for paper and scale, and
// the warm campaign's plan table size for every world the serve workload
// boots or swaps to. Regenerate it only for an intended behaviour change,
// with `perfbench --pin > golden.json`, and say so in the change.
//
//go:embed golden.json
var goldenJSON []byte

type servePin struct {
	Plans        int `json:"plans"`
	Observations int `json:"observations"`
}

type goldenFile struct {
	Paper map[string]counts   `json:"paper"`
	Scale map[string]counts   `json:"scale"`
	Serve map[string]servePin `json:"serve"`
}

func loadGolden() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}
	return g
}

func goldenCampaign(workload string, campaignSeed int64) (counts, bool) {
	g := loadGolden()
	m := g.Paper
	if workload == "scale" {
		m = g.Scale
	}
	c, ok := m[strconv.FormatInt(campaignSeed, 10)]
	return c, ok
}

func goldenServe(worldSeed int64) (servePin, bool) {
	p, ok := loadGolden().Serve[strconv.FormatInt(worldSeed, 10)]
	return p, ok
}

// printGolden measures every pinned seed and writes golden.json to
// stdout.
func printGolden() error {
	g := goldenFile{Paper: map[string]counts{}, Scale: map[string]counts{}, Serve: map[string]servePin{}}
	for s := int64(1); s <= pinnedSeeds; s++ {
		key := strconv.FormatInt(s, 10)
		for _, w := range []struct {
			spec campaignSpec
			into map[string]counts
		}{{paperSpec, g.Paper}, {scaleSpec, g.Scale}} {
			o, err := runCampaignRep(w.spec, s, nil)
			if err != nil {
				return err
			}
			w.into[key] = o.counts
		}
		fmt.Fprintf(os.Stderr, "pinned campaign seed %d\n", s)
	}
	for _, s := range serveWorldSeeds() {
		ref, err := buildReference(s)
		if err != nil {
			return err
		}
		g.Serve[strconv.FormatInt(s, 10)] = ref.pin
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
