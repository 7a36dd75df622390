package register

import "testing"

func TestTimestampOrdering(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b Timestamp
		want bool
	}{
		{Timestamp{1, 0}, Timestamp{2, 0}, true},
		{Timestamp{2, 0}, Timestamp{1, 5}, false},
		{Timestamp{3, 1}, Timestamp{3, 2}, true},
		{Timestamp{3, 2}, Timestamp{3, 2}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	if got := (Timestamp{4, 2}).String(); got != "(4,p3)" {
		t.Errorf("String = %q", got)
	}
}

func TestMergeInto(t *testing.T) {
	t.Parallel()
	cur := tagged{TS: Timestamp{3, 2}, Val: "cur"}
	tests := []struct {
		name string
		pair tagged
		want tagged
	}{
		{"newer counter wins", tagged{Timestamp{4, 0}, "new"}, tagged{Timestamp{4, 0}, "new"}},
		{"newer writer wins", tagged{Timestamp{3, 5}, "new"}, tagged{Timestamp{3, 5}, "new"}},
		{"older counter never overwrites", tagged{Timestamp{2, 9}, "old"}, cur},
		{"older writer never overwrites", tagged{Timestamp{3, 1}, "old"}, cur},
		{"equal timestamp keeps the incumbent", tagged{Timestamp{3, 2}, "dup"}, cur},
	}
	for _, tt := range tests {
		cell := cur
		mergeInto(&cell, tt.pair)
		if cell != tt.want {
			t.Errorf("%s: merge %v into %v = %v, want %v", tt.name, tt.pair, cur, cell, tt.want)
		}
	}
}
