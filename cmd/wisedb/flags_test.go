package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name       string
		cmd        string
		explicit   map[string]bool
		model      string
		store      string
		registries int
		streams    int
		listen     string
		wantErr    string // "" = valid
	}{
		{name: "plain serve", cmd: "serve", explicit: set(), registries: 1, streams: 16},
		{name: "model with store", cmd: "serve", explicit: set("model", "store"),
			model: "m.wsdb", store: "dir", registries: 1, streams: 16,
			wantErr: "mutually exclusive"},
		{name: "model alone", cmd: "serve", explicit: set("model"),
			model: "m.wsdb", registries: 1, streams: 16},
		{name: "store alone", cmd: "serve", explicit: set("store"),
			store: "dir", registries: 1, streams: 16},
		{name: "more registries than streams", cmd: "serve", explicit: set(),
			registries: 8, streams: 4, wantErr: "-registries 8 exceeds -streams 4"},
		{name: "registries equal streams", cmd: "serve", explicit: set(),
			registries: 4, streams: 4},
		{name: "registries exceed streams in daemon mode", cmd: "serve", explicit: set(),
			registries: 8, streams: 4, listen: ":7070"}, // streams don't apply to the daemon
		{name: "explicit checkpoint without store", cmd: "serve", explicit: set("checkpoint"),
			registries: 1, streams: 16, wantErr: "-checkpoint requires -store"},
		{name: "default checkpoint without store", cmd: "serve", explicit: set(),
			registries: 1, streams: 16}, // the truthy default alone is fine
		{name: "checkpoint with store", cmd: "serve", explicit: set("checkpoint", "store"),
			store: "dir", registries: 1, streams: 16},
		{name: "daemon flag without listen", cmd: "serve", explicit: set("admit-rate"),
			registries: 1, streams: 16, wantErr: "-admit-rate only applies to the network daemon"},
		{name: "daemon flag with listen", cmd: "serve", explicit: set("admit-rate"),
			registries: 1, streams: 16, listen: ":7070"},
		{name: "parallelism is not daemon-only", cmd: "serve", explicit: set("parallelism"),
			registries: 1, streams: 16}, // it sizes the in-process serve's worker pool
		{name: "checkpoint check covers every command", cmd: "online", explicit: set("checkpoint"),
			wantErr: "-checkpoint requires -store"},
		{name: "non-serve commands skip serve rules", cmd: "train", explicit: set("model"),
			model: "m.wsdb", registries: 8, streams: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.cmd, tc.explicit, tc.model, tc.store, tc.registries, tc.streams, tc.listen)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
