package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/router"
)

// An empty tools list races the default set with its hedge tiers; a
// named list races exactly what it names, QMAP included, at its tier.
func TestRaceEntries(t *testing.T) {
	tiers := func(entries []portfolio.Entry) map[string]int {
		out := map[string]int{}
		for _, e := range entries {
			out[e.Name] = e.Tier
		}
		return out
	}
	def, err := RaceEntries(" ", 2, SelectTools)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tiers(def), map[string]int{"lightsabre": 1, "ml-qls": 0, "tket": 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default race tiers = %v, want %v", got, want)
	}
	if def[0].Name != "lightsabre" {
		t.Fatalf("default race starts with %s; ties must go to LightSABRE by registration order", def[0].Name)
	}
	named, err := RaceEntries("qmap,lightsabre", 2, SelectTools)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tiers(named), map[string]int{"qmap": 2, "lightsabre": 1}; !reflect.DeepEqual(got, want) || named[0].Name != "qmap" {
		t.Fatalf("named race = %v, want qmap at tier 2 then lightsabre", got)
	}
	if _, err := RaceEntries("lightsabre,warpdrive", 2, SelectTools); err == nil {
		t.Fatal("unknown tool accepted")
	}
	if raceTier("mystery") != 1 {
		t.Error("unknown tools default to the middle tier")
	}
}

// The default race leaves out only tools that cannot win it. Over seeded
// instances of both families on Aspen-4 and the 3×3 grid, every
// registered tool outside the default race set is routed the way a race
// routes it (portfolio.Guard, the race's default seed, 8 LightSABRE
// trials) and must never strictly beat the best default racer. A failure
// names the tool to put back into raceTools.
func TestDefaultRaceMissesNoStrictWin(t *testing.T) {
	inRace := map[string]bool{}
	for _, name := range raceTools {
		inRace[name] = true
	}
	tools := DefaultTools(8)
	strict := map[string]int{}
	instances := 0
	for _, tc := range []struct {
		family string
		dev    *arch.Device
		optima []int
	}{
		{family.QubikosID, arch.RigettiAspen4(), []int{5, 10, 15, 20}},
		{family.QubikosID, arch.Grid3x3(), []int{5, 10, 15, 20}},
		{family.QuekoDepthID, arch.RigettiAspen4(), []int{10, 20, 30, 40}},
		{family.QuekoDepthID, arch.Grid3x3(), []int{10, 20, 30, 40}},
	} {
		fam, err := family.ByID(tc.family)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range tc.optima {
			for seed := int64(1); seed <= 5; seed++ {
				inst, err := fam.Generate(tc.dev, family.Options{
					Optimal:             opt,
					TargetTwoQubitGates: 300,
					PreferHighDegree:    true,
					Seed:                seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				p, err := router.Prepare(inst.Circuit, tc.dev)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s/%s/opt%d/seed%d", fam.ID, tc.dev.Name(), opt, seed)
				scores := make([]int, len(tools))
				best := -1 // best default racer's score
				for i, tool := range tools {
					var sp obs.Span
					v := portfolio.Guard(context.Background(), &sp, p, portfolio.Entry{Name: tool.Name, Make: tool.Make},
						portfolio.Options{Metric: fam.Metric, Optimal: opt})
					if v.Outcome != portfolio.OutcomeOK {
						t.Fatalf("%s: %s: %s: %v", id, tool.Name, v.Outcome, v.Err)
					}
					scores[i] = v.Score
					if inRace[tool.Name] && (best < 0 || v.Score < best) {
						best = v.Score
					}
				}
				instances++
				for i, tool := range tools {
					if !inRace[tool.Name] && scores[i] < best {
						t.Errorf("%s: %s scored %d, strictly beating the default race's best %d; add it to raceTools",
							id, tool.Name, scores[i], best)
					}
					if isStrictMin(scores, i) {
						strict[tool.Name]++
					}
				}
			}
		}
	}
	for _, tool := range tools {
		t.Logf("%-10s strict wins %d of %d instances (default race: %v)", tool.Name, strict[tool.Name], instances, inRace[tool.Name])
	}
}

// isStrictMin reports whether scores[i] is below every other score.
func isStrictMin(scores []int, i int) bool {
	for j, s := range scores {
		if j != i && s <= scores[i] {
			return false
		}
	}
	return true
}
