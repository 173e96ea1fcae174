package stats

import (
	"fmt"
	"strings"
)

// Table is a simple text table used by the bench harness to print the rows
// each experiment reproduces. Columns are right-aligned except the first.
// The json tags define its shape inside madbench's machine-readable output
// (cmd/madbench -json), which is snake_case throughout.
type Table struct {
	Title   string     `json:"title"`
	Caption string     `json:"caption,omitempty"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond len(Header) are dropped, missing cells
// are rendered empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Header) {
		cells = cells[:len(t.Header)]
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values; each value is rendered with %v
// except float64, rendered with the table's default float format.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = FormatFloat(x)
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x == float64(int64(x)) && x < 1e15 && x > -1e15:
		return fmt.Sprintf("%d", int64(x))
	case x >= 100 || x <= -100:
		return fmt.Sprintf("%.1f", x)
	case x >= 1 || x <= -1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}

// String renders the table with a title line, separator rules and aligned
// columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", w, c)
			} else {
				fmt.Fprintf(&b, "  %*s", w, c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "(%s)\n", t.Caption)
	}
	return b.String()
}
