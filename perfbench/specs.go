package main

// The generated part of each workload; perfbench/workloads.json records
// what these produce over seeds 1-10.
var (
	// sweepGen adds small programs to the seven named ones, up to a fixed
	// analysis weight, so the generated share of each pass is about the
	// same for every seed.
	sweepGen = GenSpec{Tag: "sweep", Count: 64, Funcs: 2, MaxDepth: 2, MinNodes: 30, MaxNodes: 90, MinPaths: 2, MaxPaths: 10, Budget: 4000, MaxWeight: 700}
	// feasibleGen adds correlated-branch programs whose largest functions
	// run from 30 to 150 nodes, past the named programs' 63, so
	// detection's growth with function size shows.
	feasibleGen = GenSpec{Tag: "feas", Count: 40, Funcs: 2, MaxDepth: 4, Correlated: 40, MinNodes: 30, MaxNodes: 150, MaxPaths: 10, Budget: 6000, MaxWeight: 1500}
)

// genSpecs maps each workload to its generated part; replay has none.
var genSpecs = map[string]*GenSpec{"sweep": &sweepGen, "feasible": &feasibleGen, "replay": nil}
