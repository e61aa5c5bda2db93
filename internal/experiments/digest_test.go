package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestReportDigests pins the printed report of every registered experiment
// at Tiny sizes and a short round budget, so a refactor of how experiments
// build their topology or drive their runs must leave every byte where it
// was. It deliberately runs under -short too: the race+invariants pass then
// executes every experiment with the runtime contract checks compiled in.
//
// Each digest is FNV-64a over the report bytes.
func TestReportDigests(t *testing.T) {
	want := map[string]string{
		"churn":     "8f4f0ef93d433dea",
		"deviation": "ef429d5fa4036603",
		"failover":  "17ebc00229d9a438",
		"fig1":      "59fa64baabfa778e",
		"fig11":     "ed8f11485c235efa",
		"fig12":     "62c8ae0ee8503ffe",
		"fig13":     "63a23bada43f561f",
		"fig14":     "8d4cf471a7dd8c5a",
		"fig15":     "76202adc9abab598",
		"fig2":      "10e6b26bf729834c",
		"fig3":      "995e8fdd741c08a1",
		"fig4":      "82bc67d66daf0467",
		"fig5":      "d4d6d63610c35e9c",
		"fig6":      "3e2eb9ab6fcbc1c9",
		"fig7":      "0b6e7cfcee966a8b",
		"fig8":      "2c640e706b655946",
		"fig9":      "5d824b864241c861",
		"hetero":    "8047d6d342e1cde7",
		"negload":   "ca70d054c5da8068",
		"table1":    "88c21a594620866b",
		"throttle":  "b03b91f046a7a084",
		"traffic":   "c15042b3464f7e52",
	}
	p := Params{Seed: 1, Tiny: true, RoundsOverride: 60, TableRows: 6, CellWorkers: 2}
	if got, exps := len(want), len(All()); got != exps {
		t.Errorf("%d pinned digests for %d experiments", got, exps)
	}
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(&buf, p); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[e.ID] {
			t.Errorf("%s: digest %s, want %s", e.ID, got, want[e.ID])
		}
	}
}
