// Command xorgame regenerates Figure 3 (experiment E2): the probability
// that a randomly labeled XOR game on the complete graph K_n admits a
// quantum advantage, as a function of the probability that an edge is
// exclusive. The paper computed this with the Toqito Python package; here
// the classical value is exact enumeration and the quantum value the
// Tsirelson vector optimization.
//
// Each sweep point draws its game ensemble from its own derived stream
// (xrand.New(seed, point-index)), so every point is a pure function of
// (seed, index). SIGINT/SIGTERM or the -timeout deadline stops the sweep
// between points: the rows already printed stand, a second signal kills the
// process, and the exit status is 130 on interrupt and 1 on timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/games"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func main() {
	n := flag.Int("vertices", 5, "graph vertices (task classes); the paper uses 5")
	trials := flag.Int("trials", 500, "random labelings per sweep point")
	step := flag.Float64("step", 0.05, "sweep step for the exclusive-edge probability")
	seed := flag.Uint64("seed", 2, "random seed")
	gaps := flag.Bool("gaps", false, "also print mean classical/quantum values per point")
	vertexSweep := flag.Bool("vertex-sweep", false, "sweep vertex count at p=0.5 (Figure 3 caption: probability increases with vertices)")
	timeout := flag.Duration("timeout", 0, "whole-run deadline (0 = none)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once the run is stopping, a second signal takes the default action.
	context.AfterFunc(ctx, stop)

	var sw sweep
	if *vertexSweep {
		sw = vertexSweepPlan(*trials, *seed)
	} else {
		sw = probabilitySweepPlan(*n, *trials, *step, *seed, *gaps)
	}
	os.Exit(runSweep(ctx, sw))
}

// point is one sweep unit: a pure function of its derived stream that
// renders one or more table rows.
type point struct {
	stream uint64
	render func(rng *xrand.RNG) string
}

// sweep is a full table: header, ordered points, footer.
type sweep struct {
	seed   uint64
	header string
	footer string
	points []point
}

// runSweep prints the points in order until ctx is done and returns the
// process exit code.
func runSweep(ctx context.Context, sw sweep) int {
	fmt.Print(sw.header)
	for i, p := range sw.points {
		if err := ctx.Err(); err != nil {
			fmt.Printf("\nsweep interrupted: %v — %d/%d points done\n", err, i, len(sw.points))
			if errors.Is(err, context.DeadlineExceeded) {
				return 1
			}
			return 130
		}
		fmt.Print(p.render(xrand.New(sw.seed, p.stream)))
	}
	fmt.Print(sw.footer)
	return 0
}

// probabilitySweepPlan is the Figure 3 sweep over the exclusive-edge
// probability; point i draws its ensemble from xrand.New(seed, i).
func probabilitySweepPlan(n, trials int, step float64, seed uint64, gaps bool) sweep {
	header := fmt.Sprintf("=== E2 / Figure 3: P(quantum advantage) for random XOR games on K%d ===\n", n) +
		fmt.Sprintf("%d labelings per point; advantage = quantum bias > classical bias + %g\n\n",
			trials, games.AdvantageTolerance)
	if gaps {
		header += "p_exclusive   P(advantage)   [95% CI]          mean classical   mean quantum\n"
	} else {
		header += "p_exclusive   P(advantage)   [95% CI]\n"
	}
	var points []point
	idx := uint64(0)
	for p := 0.0; p <= 1.0+1e-9; p += step {
		p := p
		points = append(points, point{
			stream: idx,
			render: func(rng *xrand.RNG) string {
				var adv stats.Proportion
				var cVal, qVal stats.Welford
				// Draw the whole ensemble serially (a pure function of this
				// point's stream), then solve through the batch pipeline;
				// solves are pure functions of the games, so results land in
				// trial order regardless of worker count.
				gs := make([]*games.XORGame, trials)
				for t := range gs {
					gs[t] = games.RandomGraphXORGame(n, p, rng)
				}
				for _, r := range games.SolveBatch(gs, 0) {
					adv.Add(r.HasAdvantage())
					cVal.Add(r.Classical.Value)
					qVal.Add(r.Quantum.Value)
				}
				lo, hi := adv.Wilson95()
				if gaps {
					return fmt.Sprintf("%.2f          %.3f          [%.3f, %.3f]    %.4f           %.4f\n",
						p, adv.Rate(), lo, hi, cVal.Mean(), qVal.Mean())
				}
				return fmt.Sprintf("%.2f          %.3f          [%.3f, %.3f]\n", p, adv.Rate(), lo, hi)
			},
		})
		idx++
	}
	return sweep{
		seed:   seed,
		header: header,
		footer: "\nexpected shape: 0 at p=0 and p=1 (classically satisfiable labelings),\n" +
			"high probability in between — 'most graphs with randomly labeled edges\n" +
			"exhibit a quantum advantage, making it the typical case' (paper §4.1)\n",
		points: points,
	}
}

// vertexSweepPlan checks the Figure 3 caption: "The probability of
// achieving a quantum advantage increases with the number of vertices."
func vertexSweepPlan(trials int, seed uint64) sweep {
	var points []point
	for n := 3; n <= 7; n++ {
		n := n
		points = append(points, point{
			stream: uint64(n),
			render: func(rng *xrand.RNG) string {
				var adv stats.Proportion
				gs := make([]*games.XORGame, trials)
				for t := range gs {
					gs[t] = games.RandomGraphXORGame(n, 0.5, rng)
				}
				for _, r := range games.SolveBatch(gs, 0) {
					adv.Add(r.HasAdvantage())
				}
				lo, hi := adv.Wilson95()
				return fmt.Sprintf("%d          %.3f          [%.3f, %.3f]\n", n, adv.Rate(), lo, hi)
			},
		})
	}
	return sweep{
		seed: seed,
		header: "=== Figure 3 caption: P(advantage) at p=0.5 vs vertex count ===\n" +
			"vertices   P(advantage)   [95% CI]\n",
		footer: "\nexpected: monotone increase with n (paper's Figure 3 caption)\n",
		points: points,
	}
}
