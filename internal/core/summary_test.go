package core

import "testing"

// TestSummarize: the level fold counts only views that ran the level,
// sums their work, and tests the window and centre caps separately.
func TestSummarize(t *testing.T) {
	const maxSlides = 3
	view := func(levels ...LevelStats) Result { return Result{PerLevel: levels} }
	free := LevelStats{Matchings: 10, CenterEvals: 9, Slides: 1, CenterSlides: 0, DescentMoves: 2, Shifts: [][2]float64{{0.5, 0}}}
	windowCap := LevelStats{Matchings: 40, CenterEvals: 18, Slides: maxSlides, CenterSlides: 1, DescentMoves: 5}
	centreCap := LevelStats{Matchings: 7, CenterEvals: 36, CenterSlides: maxSlides, Shifts: [][2]float64{{1, 0}, {0, 1}}}
	bothCap := LevelStats{Matchings: 50, CenterEvals: 45, Slides: maxSlides + 1, CenterSlides: maxSlides, DescentMoves: 1}

	for _, tc := range []struct {
		name    string
		results []Result
		level   int
		want    LevelSummary
	}{
		{"zero views", nil, 0, LevelSummary{}},
		{"short PerLevel skipped", []Result{view(free), view(free, windowCap), view()}, 1,
			LevelSummary{Views: 1, Matchings: 40, CenterEvals: 18, Slides: 3, CenterSlides: 1, DescentMoves: 5, SlideViews: 1, SlideCapped: 1}},
		{"window cap only", []Result{view(windowCap), view(free)}, 0,
			LevelSummary{Views: 2, Matchings: 50, CenterEvals: 27, Slides: 4, CenterSlides: 1, DescentMoves: 7, Shifts: 1, SlideViews: 2, SlideCapped: 1}},
		{"centre cap only", []Result{view(free, centreCap)}, 1,
			LevelSummary{Views: 1, Matchings: 7, CenterEvals: 36, CenterSlides: 3, Shifts: 2, CenterCapped: 1}},
		{"both caps", []Result{view(bothCap), view(centreCap)}, 0,
			LevelSummary{Views: 2, Matchings: 57, CenterEvals: 81, Slides: 4, CenterSlides: 6, DescentMoves: 1, Shifts: 2, SlideViews: 1, SlideCapped: 1, CenterCapped: 2}},
	} {
		if got := Summarize(tc.results, tc.level, maxSlides); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
