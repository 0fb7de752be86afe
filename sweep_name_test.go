package dynring

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAxisRowNamesMatchSprintf: an axis-form row's name is exactly
// fmt.Sprintf("%s/n=%d/%s/seed=%d", ...) of its coordinates, extreme
// integers and a name longer than the stack scratch included.
func TestAxisRowNamesMatchSprintf(t *testing.T) {
	long := strings.Repeat("x", 200)
	for _, algo := range []string{"KnownNNoChirality", "", long} {
		for _, size := range []int{0, 1, -1, 64, math.MaxInt, math.MinInt} {
			for _, adv := range []string{"random(p=0.5)", "", "π/∞"} {
				for _, seed := range []int64{0, 7, -7, math.MaxInt64, math.MinInt64} {
					got := axisName(algo, size, adv, seed)
					if want := fmt.Sprintf("%s/n=%d/%s/seed=%d", algo, size, adv, seed); got != want {
						t.Fatalf("axisName = %q, want %q", got, want)
					}
				}
			}
		}
	}
}
