package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The cost model is deterministic, and so are the corpora, the partitioners
// and the query samples: every cell of the figures it times repeats to the
// digit. These tests pin them, so a change to how reads are priced, or to
// what a query reads, shows up as the cells it moved.

// modeledGolden holds every row of table1, table-chunksize, fig8, fig10,
// fig11, fig12 and ablation-replication at microOpts, cells joined by " | ",
// by table id.
var modeledGolden = map[string][]string{
	"table1": {
		"Chunked (RStore) | 0.00MB | 0.00MB | 2.0 | 2.1KB | 1.0",
		"DELTA | 0.01MB | 0.01MB | 12.7 | 4.2KB | 6.0",
		"SUBCHUNK | 0.01MB | 0.01MB | 64.0 | 0.3KB | 1.0",
		"SINGLE | 0.01MB | 0.01MB | 64.0 | 0.1KB | 1.0",
	},
	"table-chunksize": {
		"1 | 2000 | 0.19MB | 1.302s",
		"10 | 1289 | 1.23MB | 0.853s",
		"100 | 200 | 1.91MB | 0.153s",
		"1000 | 20 | 1.91MB | 0.036s",
		"10000 | 2 | 1.91MB | 0.024s",
	},
	"fig8a": {
		"A0 | 113 | 114 | 160 | 160 | 189",
		"A1 | 112 | 113 | 116 | 116 | 129",
		"A2 | 112 | 113 | 116 | 116 | 129",
		"B0 | 153 | 153 | 156 | 157 | 172",
		"B1 | 152 | 151 | 156 | 157 | 172",
		"B2 | 158 | 151 | 162 | 163 | 180",
	},
	"fig8b": {
		"C0 | 526 | 659 | 578 | 578 | 838",
		"C1 | 523 | 492 | 474 | 510 | 659",
		"C2 | 567 | 558 | 517 | 578 | 659",
		"D0 | 526 | 659 | 578 | 578 | 838",
		"D1 | 523 | 492 | 474 | 510 | 659",
		"D2 | 567 | 558 | 517 | 578 | 659",
	},
	"fig10-A0-pd10": {
		"1 | 0.99 | 2452 | 5284 | 2726",
		"2 | 1.66 | 2737 | 4690 | 3065",
		"5 | 2.82 | 3677 | 4979 | 3896",
		"12 | 3.85 | 5292 | 6396 | 5335",
		"25 | 4.33 | 7334 | 8964 | 7141",
		"50 | 4.50 | 8488 | 10138 | 8370",
	},
	"fig10-A0-pd5": {
		"1 | 0.99 | 2452 | 5284 | 2726",
		"2 | 1.76 | 2728 | 4677 | 3025",
		"5 | 3.30 | 3292 | 4468 | 3506",
		"12 | 4.96 | 4142 | 5175 | 4141",
		"25 | 5.87 | 5267 | 6914 | 5096",
		"50 | 6.22 | 5663 | 7226 | 5423",
	},
	"fig10-A0-pd1": {
		"1 | 0.99 | 2452 | 5284 | 2726",
		"2 | 1.82 | 2548 | 4395 | 2828",
		"5 | 3.70 | 2895 | 3974 | 3031",
		"12 | 6.11 | 3435 | 4296 | 3365",
		"25 | 7.64 | 3970 | 5238 | 3725",
		"50 | 8.27 | 4127 | 5508 | 3951",
	},
	"fig10-C0-pd10": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.32 | 1001 | 1086 | 1092",
		"5 | 2.27 | 1040 | 1149 | 1120",
		"12 | 3.64 | 1152 | 1160 | 1152",
		"25 | 3.72 | 1152 | 1152 | 1152",
		"50 | 3.72 | 1152 | 1152 | 1152",
	},
	"fig10-C0-pd5": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.35 | 923 | 962 | 987",
		"5 | 2.53 | 934 | 1006 | 1011",
		"12 | 4.61 | 933 | 896 | 905",
		"25 | 4.75 | 896 | 896 | 896",
		"50 | 4.75 | 896 | 896 | 896",
	},
	"fig10-C0-pd1": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.37 | 923 | 962 | 987",
		"5 | 2.73 | 915 | 942 | 911",
		"12 | 5.56 | 805 | 776 | 768",
		"25 | 5.77 | 768 | 768 | 768",
		"50 | 5.77 | 768 | 768 | 768",
	},
	"fig10-D0-pd10": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.32 | 1001 | 1086 | 1092",
		"5 | 2.27 | 1040 | 1149 | 1120",
		"12 | 3.64 | 1152 | 1160 | 1152",
		"25 | 3.72 | 1152 | 1152 | 1152",
		"50 | 3.72 | 1152 | 1152 | 1152",
	},
	"fig10-D0-pd5": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.35 | 923 | 962 | 987",
		"5 | 2.53 | 934 | 1006 | 1011",
		"12 | 4.61 | 933 | 896 | 905",
		"25 | 4.75 | 896 | 896 | 896",
		"50 | 4.75 | 896 | 896 | 896",
	},
	"fig10-D0-pd1": {
		"1 | 0.99 | 927 | 963 | 1107",
		"2 | 1.37 | 923 | 962 | 987",
		"5 | 2.73 | 915 | 942 | 911",
		"12 | 5.56 | 805 | 776 | 768",
		"25 | 5.77 | 768 | 768 | 768",
		"50 | 5.77 | 768 | 768 | 768",
	},
	"fig11-A0-q1": {
		"1 | 11.594ms | 14.216ms | 13.340ms | 9.072ms | 71.079ms",
		"2 | 14.029ms | 15.997ms | 14.467ms | - | 71.079ms",
		"5 | 16.445ms | 16.229ms | 17.101ms | - | 71.079ms",
		"12 | 16.445ms | 16.229ms | 17.101ms | - | 71.079ms",
		"25 | 16.445ms | 16.229ms | 17.101ms | - | 71.079ms",
	},
	"fig11-A0-q2": {
		"1 | 5.031ms | 5.250ms | 4.594ms | 11.724ms | 8.474ms",
		"2 | 2.411ms | 2.192ms | 1.974ms | - | 8.474ms",
		"5 | 2.192ms | 2.410ms | 2.192ms | - | 8.474ms",
		"12 | 2.192ms | 2.410ms | 2.192ms | - | 8.474ms",
		"25 | 2.192ms | 2.410ms | 2.192ms | - | 8.474ms",
	},
	"fig11-A0-q3": {
		"1 | 0.874ms | 0.873ms | 0.874ms | 15.921ms | 0.651ms",
		"2 | 0.657ms | 0.657ms | 0.875ms | - | 0.651ms",
		"5 | 0.656ms | 0.656ms | 0.656ms | - | 0.651ms",
		"12 | 0.656ms | 0.656ms | 0.656ms | - | 0.651ms",
		"25 | 0.656ms | 0.656ms | 0.656ms | - | 0.651ms",
	},
	"fig11-C0-q1": {
		"1 | 3.494ms | 5.454ms | 5.456ms | 5.256ms | 15.703ms",
		"2 | 4.812ms | 6.557ms | 6.995ms | - | 15.703ms",
		"5 | 9.403ms | 8.967ms | 8.749ms | - | 15.703ms",
		"12 | 9.191ms | 9.191ms | 9.191ms | - | 15.703ms",
		"25 | 9.191ms | 9.191ms | 9.191ms | - | 15.703ms",
	},
	"fig11-C0-q2": {
		"1 | 2.400ms | 1.309ms | 2.835ms | 4.820ms | 2.398ms",
		"2 | 1.967ms | 1.092ms | 2.184ms | - | 2.398ms",
		"5 | 1.530ms | 1.094ms | 1.530ms | - | 2.398ms",
		"12 | 0.876ms | 0.876ms | 0.876ms | - | 2.398ms",
		"25 | 0.876ms | 0.876ms | 0.876ms | - | 2.398ms",
	},
	"fig11-C0-q3": {
		"1 | 2.181ms | 1.746ms | 1.963ms | 17.736ms | 0.653ms",
		"2 | 0.874ms | 1.310ms | 1.528ms | - | 0.653ms",
		"5 | 0.655ms | 0.656ms | 0.655ms | - | 0.653ms",
		"12 | 0.655ms | 0.655ms | 0.655ms | - | 0.653ms",
		"25 | 0.655ms | 0.655ms | 0.655ms | - | 0.653ms",
	},
	"fig12-G": {
		"1 | 16 | 8.514ms | 13.0 | 1.528ms | 2.3",
		"2 | 16 | 4.588ms | 11.3 | 1.528ms | 3.0",
		"4 | 32 | 5.462ms | 14.0 | 1.747ms | 4.7",
		"8 | 64 | 5.029ms | 18.7 | 1.530ms | 6.3",
		"12 | 96 | 4.377ms | 22.7 | 2.843ms | 12.7",
		"16 | 128 | 4.594ms | 21.3 | 2.846ms | 17.0",
	},
	"fig12-H": {
		"1 | 16 | 11.353ms | 17.3 | 1.964ms | 3.0",
		"2 | 16 | 6.991ms | 15.7 | 0.874ms | 2.3",
		"4 | 16 | 4.593ms | 16.3 | 0.874ms | 2.7",
		"8 | 25 | 4.812ms | 18.0 | 0.875ms | 3.3",
		"12 | 38 | 3.502ms | 16.0 | 1.094ms | 5.0",
		"16 | 51 | 2.851ms | 19.3 | 1.531ms | 6.7",
	},
	"ablation-replication": {
		"1 | 4.375ms | 0.02MB",
		"2 | 4.375ms | 0.03MB",
		"3 | 4.375ms | 0.05MB",
	},
}

func TestModeledFiguresRepeat(t *testing.T) {
	got := map[string][]string{}
	var order []string
	for _, run := range []func(Options) ([]*Table, error){
		RunTable1, RunChunkSize, RunFig8, RunFig10, RunFig11, RunFig12, RunAblationReplication,
	} {
		tables, err := run(microOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			order = append(order, tab.ID)
			for _, row := range tab.Rows {
				got[tab.ID] = append(got[tab.ID], strings.Join(row, " | "))
			}
		}
	}
	if reflect.DeepEqual(got, modeledGolden) {
		return
	}
	var sb strings.Builder
	for _, id := range order {
		fmt.Fprintf(&sb, "\t%q: {\n", id)
		for _, row := range got[id] {
			fmt.Fprintf(&sb, "\t\t%q,\n", row)
		}
		sb.WriteString("\t},\n")
		if !reflect.DeepEqual(got[id], modeledGolden[id]) {
			t.Errorf("%s: rows\n%s\nwant\n%s", id, strings.Join(got[id], "\n"), strings.Join(modeledGolden[id], "\n"))
		}
	}
	t.Logf("measured:\n%s", sb.String())
}

// TestFig13MatchesSnapshot reruns fig13 at the options BENCH_fig13.json
// records and checks every table of the checked-in snapshot repeats.
func TestFig13MatchesSnapshot(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_fig13.json")
	if err != nil {
		t.Fatal(err)
	}
	var want Snapshot
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	opts := Options{VersionFrac: want.VersionFrac, RecordFrac: want.RecordFrac, SizeFrac: want.SizeFrac, Queries: want.Queries, Seed: want.Seed}
	tables, err := RunFig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A JSON round trip, so both sides hold what the file can say.
	b, err = json.Marshal(NewSnapshot("fig13", opts, 0, tables).Tables)
	if err != nil {
		t.Fatal(err)
	}
	var got []SnapshotTable
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Tables) {
		t.Fatalf("fig13: %d tables, BENCH_fig13.json has %d", len(got), len(want.Tables))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want.Tables[i]) {
			t.Errorf("fig13 table %d:\n got %+v\nwant %+v", i, got[i], want.Tables[i])
		}
	}
}
