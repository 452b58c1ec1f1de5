package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"glare/internal/rrd"
)

// TestHistoryConfig checks the -history-step / -history-ret parsing: a
// retention ladder of [cf:]STEPSxROWS items, and the refusal of anything
// that is not a positive step or a well-formed item.
func TestHistoryConfig(t *testing.T) {
	for _, tc := range []struct {
		name      string
		step      time.Duration
		retention string
		want      []rrd.ArchiveSpec
		err       string // substring of the error; empty wants success
	}{
		{name: "defaults", step: 5 * time.Second},
		{
			name: "ladder", step: time.Second, retention: "avg:1x600, max:10x60,60x1440",
			want: []rrd.ArchiveSpec{
				{CF: rrd.Average, Steps: 1, Rows: 600},
				{CF: rrd.Max, Steps: 10, Rows: 60},
				{CF: rrd.Average, Steps: 60, Rows: 1440},
			},
		},
		{
			name: "empty items skipped", step: time.Second, retention: ",1x10,, ,last:2x5,",
			want: []rrd.ArchiveSpec{
				{CF: rrd.Average, Steps: 1, Rows: 10},
				{CF: rrd.Last, Steps: 2, Rows: 5},
			},
		},
		{name: "malformed item", step: time.Second, retention: "1x10,tenbyten", err: `-history-ret "tenbyten"`},
		{name: "zero rows", step: time.Second, retention: "4x0", err: `-history-ret "4x0"`},
		{name: "rows past the bound", step: time.Second, retention: "1x65537", err: `-history-ret "1x65537": at most 65536 rows`},
		{name: "bad cf prefix", step: time.Second, retention: "median:1x10", err: `-history-ret "median:1x10"`},
		{name: "zero step", step: 0, err: "-history-step"},
		{name: "negative step", step: -time.Second, retention: "1x10", err: "-history-step"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := historyConfig(tc.step, tc.retention)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one naming %s", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Step != tc.step || !reflect.DeepEqual(cfg.Archives, tc.want) {
				t.Fatalf("got step %s archives %+v, want %s %+v", cfg.Step, cfg.Archives, tc.step, tc.want)
			}
		})
	}
}
