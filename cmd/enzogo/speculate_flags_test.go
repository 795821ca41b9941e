package main

// The serve flags that turn speculation on, against a real process:
// -speculate decides whether the class runs, -speculate-slots how many
// speculations run at once when it does.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSpeculateFlags(t *testing.T) {
	bin := buildEnzogo(t, t.TempDir())
	for _, tc := range []struct {
		args  []string
		on    bool
		slots any // /healthz "speculate_slots"; absent while speculation is off
	}{
		{[]string{"-speculate-slots", "3"}, false, nil},
		{[]string{"-speculate"}, true, 1.0},
		{[]string{"-speculate", "-speculate-slots", "2"}, true, 2.0},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			addr := freeAddr(t)
			base := "http://" + addr
			cmd := startServe(t, bin, append([]string{"-addr", addr, "-slots", "1", "-workers", "1"}, tc.args...)...)
			defer func() { cmd.Process.Kill(); cmd.Wait() }()
			waitHealthy(t, base)

			var health map[string]any
			getJSON(t, base+"/healthz", &health)
			if health["speculate"] != tc.on || health["speculate_slots"] != tc.slots {
				t.Fatalf("/healthz speculate=%v speculate_slots=%v, want %v and %v",
					health["speculate"], health["speculate_slots"], tc.on, tc.slots)
			}
			resp, err := http.Post(base+"/sweeps", "application/json",
				strings.NewReader(`{"jobs":[{"problem":"sedov","rootn":8,"maxlevel":0,"steps":2,"workers":1}]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var sweep sim.SweepResponse
			if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
				t.Fatal(err)
			}
			if sweep.Speculate != tc.on {
				t.Fatalf("POST /sweeps speculate=%v, want %v", sweep.Speculate, tc.on)
			}
		})
	}
}

// getJSON decodes the JSON body of a GET.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
