package games

// Multi-class colocation: §4.1 generalizes from two task types to a graph
// of task classes via XOR games. This file builds the complete game for a
// realistic workload: k task classes with a categorical popularity
// distribution, where two tasks want the SAME server exactly when they are
// the same colocation-loving class (same texture, same warm cache), and
// different servers otherwise — including two different cache-loving
// classes, which pollute each other ("multiple subtypes of type-C tasks
// that do not like being mixed", the paper's caveat against dedicated-
// server hybrids).

// ClassKind says whether a task class benefits from colocation with its own
// kind (Caching) or wants isolation (Exclusive-kind).
type ClassKind int

const (
	// KindExclusive tasks always want a server to themselves.
	KindExclusive ClassKind = iota
	// KindCaching tasks want to share with their own class only.
	KindCaching
)

// MultiClassColocationGame builds the XOR game over k task classes with
// input distribution π(x,y) = weights[x]·weights[y] (normalized):
//
//	parity(x,y) = 0 (same server) iff x == y and kinds[x] == KindCaching
//	parity(x,y) = 1 (different servers) otherwise.
func MultiClassColocationGame(kinds []ClassKind, weights []float64) *XORGame {
	k := len(kinds)
	if k < 2 || len(weights) != k {
		panic("games: need ≥2 classes with matching weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("games: negative class weight")
		}
		total += w
	}
	if total <= 0 {
		panic("games: class weights sum to zero")
	}

	g := &XORGame{Name: "multiclass-colocation", NA: k, NB: k}
	g.Prob = make([][]float64, k)
	g.Parity = make([][]int, k)
	for x := 0; x < k; x++ {
		g.Prob[x] = make([]float64, k)
		g.Parity[x] = make([]int, k)
		for y := 0; y < k; y++ {
			g.Prob[x][y] = weights[x] / total * weights[y] / total
			if x == y && kinds[x] == KindCaching {
				g.Parity[x][y] = 0
			} else {
				g.Parity[x][y] = 1
			}
		}
	}
	mustValidate(g)
	return g
}
