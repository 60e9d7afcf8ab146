package main

import "testing"

func TestRunCommands(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{name: "no args", args: nil, want: 2},
		{name: "unknown command", args: []string{"bogus"}, want: 2},
		{name: "help", args: []string{"help"}, want: 0},
		{name: "sample small", args: []string{"sample", "-n", "64", "-k", "500"}, want: 0},
		{name: "sample naive", args: []string{"sample", "-n", "64", "-k", "500", "-sampler", "naive"}, want: 0},
		{name: "sample chord backend", args: []string{"sample", "-n", "32", "-k", "100", "-backend", "chord"}, want: 0},
		{name: "sample kademlia backend", args: []string{"sample", "-n", "32", "-k", "100", "-backend", "kademlia"}, want: 0},
		{name: "sample bad sampler", args: []string{"sample", "-sampler", "bogus", "-n", "16", "-k", "1"}, want: 1},
		{name: "sample bad backend", args: []string{"sample", "-backend", "bogus"}, want: 1},
		{name: "estimate", args: []string{"estimate", "-n", "256", "-callers", "4"}, want: 0},
		{name: "verify", args: []string{"verify", "-n", "256"}, want: 0},
		{name: "arcs", args: []string{"arcs", "-n", "256"}, want: 0},
		{name: "bad flag", args: []string{"sample", "-definitely-not-a-flag"}, want: 1},
		{name: "sample NaN drop rate", args: []string{"sample", "-n", "32", "-k", "10", "-backend", "chord", "-drop-rate", "NaN"}, want: 1},
		{name: "sample NaN partition", args: []string{"sample", "-n", "32", "-k", "10", "-backend", "chord", "-partition", "NaN"}, want: 1},
		{name: "sample infinite drop rate", args: []string{"sample", "-n", "32", "-k", "10", "-backend", "chord", "-drop-rate", "+Inf"}, want: 1},
		{name: "estimate NaN c1", args: []string{"estimate", "-n", "256", "-callers", "4", "-c1", "NaN"}, want: 1},
		{name: "estimate infinite c1", args: []string{"estimate", "-n", "256", "-callers", "4", "-c1", "Inf"}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}
