// Package repro reproduces "Orientation Refinement of Virus Structures
// with Unknown Symmetry" (Ji, Marinescu, Zhang, Baker; IPPS/IPDPS
// 2003): a parallel, Fourier-domain, sliding-window multi-resolution
// algorithm for refining the orientations of single-particle cryo-TEM
// views without assuming any particle symmetry.
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory): internal/core is the refinement algorithm itself;
// internal/fft, fourier, volume, projection, ctf, reconstruct and fsc
// are the numerical substrates; internal/cluster and parfft price the
// paper's program on the distributed-memory machine of its evaluation
// (a ledger of per-node simulated clocks, not an executor);
// internal/phantom and micrograph synthesize the experimental data;
// internal/symmetry is the symmetry-group detector; internal/workload
// drives every table and figure of the paper, the legacy-schedule
// comparison included; internal/cycle and serve run the whole
// refine → reconstruct → FSC loop as journaled jobs. Executables are
// under cmd/ (refined, repstat, tables, replint, benchcycle) and
// runnable examples under examples/.
//
// The benchmarks in this package (bench_test.go) regenerate each table
// and figure of the paper's evaluation at simulator scale; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.
package repro
