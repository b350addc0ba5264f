package sql

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// Explain renders a textual execution plan for the statement against the
// database: access paths (equality, IN-list or MATCH-posting index probes
// vs full scans), pushed-down predicates, the chosen join order,
// join strategies (hash vs nested loop) with build sides and key columns,
// filters, aggregation, ordering and limits. The rendering is produced
// from the same QueryPlan the executor runs, so the plan reflects what
// Execute actually does.
func Explain(db *relational.Database, stmt *SelectStmt) (string, error) {
	qp, err := Plan(db, stmt)
	if err != nil {
		return "", err
	}
	return renderPlan(db, stmt, qp), nil
}

// ExplainAnalyze executes the statement and renders its plan with the
// observed cardinality next to each estimate, the estimated-vs-actual view
// that shows where the statistics were wrong.
func ExplainAnalyze(db *relational.Database, stmt *SelectStmt) (string, error) {
	res, err := Execute(db, stmt)
	if err != nil {
		return "", err
	}
	return renderPlan(db, stmt, res.Plan), nil
}

func renderPlan(db *relational.Database, stmt *SelectStmt, qp *QueryPlan) string {
	var b strings.Builder
	indent := 0
	line := func(format string, args ...interface{}) {
		b.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&b, format, args...)
		b.WriteString("\n")
	}

	if qp.Reordered {
		line("JOIN ORDER %s (reordered)", strings.Join(qp.JoinOrder, ", "))
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		line("LIMIT %s OFFSET %d", limitText(stmt.Limit), stmt.Offset)
		indent++
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]string, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			dir := "ASC"
			if o.Desc {
				dir = "DESC"
			}
			keys[i] = o.Expr.SQL() + " " + dir
		}
		line("SORT BY %s", strings.Join(keys, ", "))
		indent++
	}
	if stmt.Distinct {
		line("DISTINCT")
		indent++
	}

	if len(stmt.GroupBy) > 0 || anyAgg(stmt) {
		if len(stmt.GroupBy) > 0 {
			keys := make([]string, len(stmt.GroupBy))
			for i, g := range stmt.GroupBy {
				keys[i] = g.SQL()
			}
			line("AGGREGATE GROUP BY %s", strings.Join(keys, ", "))
		} else {
			line("AGGREGATE (single group)")
		}
		if stmt.Having != nil {
			indent++
			line("HAVING %s", stmt.Having.SQL())
			indent--
		}
		indent++
	}

	line("PROJECT %s", projectText(stmt))
	indent++
	if len(qp.Filter) > 0 {
		line("FILTER %s", strings.Join(qp.Filter, " AND "))
		indent++
	}

	// Join tree, innermost (base scan) last; each join step names its
	// strategy, build side, keys and the predicates placed at that level.
	joinLines := []string{scanLine(db, qp.Scans[0])}
	for i, jp := range qp.Joins {
		kind := "NESTED LOOP JOIN"
		detail := "on " + jp.On
		if jp.Strategy == StrategyHash {
			kind = "HASH JOIN"
			side := "right"
			if jp.BuildLeft {
				side = "left"
			}
			detail = "build " + side + " on " + strings.Join(jp.Keys, ", ")
			if len(jp.Residual) > 0 {
				detail += " residual " + strings.Join(jp.Residual, " AND ")
			}
		}
		if jp.Outer {
			kind = "LEFT " + kind
		}
		entry := fmt.Sprintf("%s %s %s", kind, scanText(refOf(jp.Table, jp.Binding)), detail)
		if len(jp.Filter) > 0 {
			entry += " filter " + strings.Join(jp.Filter, " AND ")
		}
		entry += rowsText("~", jp.EstRows, jp.ActualRows)
		joinLines = append(joinLines, entry, scanLine(db, qp.Scans[i+1]))
	}
	for i := 0; i < len(joinLines); i++ {
		line("%s", joinLines[len(joinLines)-1-i])
		indent++
	}
	return b.String()
}

// rowsText renders the estimated (and, after execution, actual) row count
// of one plan operator.
func rowsText(prefix string, est, actual int) string {
	if actual >= 0 {
		return fmt.Sprintf(" (%s%d est, %d actual rows)", prefix, est, actual)
	}
	return ""
}

func refOf(table, binding string) TableRef {
	tr := TableRef{Table: table}
	if binding != table {
		tr.Alias = binding
	}
	return tr
}

// scanLine renders one base-table access: full scans report the real table
// size, index probes the probe description with the matched-row estimate;
// pushed-down predicates are shown as a scan-level FILTER. After execution
// the actual emitted row count follows the estimate, and a full scan that
// the other side of its hash join narrowed says so ([narrowed via <column>
// index]).
func scanLine(db *relational.Database, sp ScanPlan) string {
	tr := refOf(sp.Table, sp.Binding)
	var s string
	switch sp.Access {
	case AccessIndexEq:
		s = fmt.Sprintf("INDEX SCAN %s (%s = %s, ~%d rows)", scanText(tr), sp.IndexColumn, sp.Lookup(), sp.EstRows)
	case AccessIndexIn:
		s = fmt.Sprintf("IN SCAN %s (%s %s, ~%d rows)", scanText(tr), sp.IndexColumn, sp.Lookup(), sp.EstRows)
	case AccessMatchPostings:
		s = fmt.Sprintf("MATCH SCAN %s (%s %s, ~%d rows)", scanText(tr), sp.IndexColumn, sp.Lookup(), sp.EstRows)
	default:
		s = fmt.Sprintf("SCAN %s (%d rows)", scanText(tr), db.Table(sp.Table).Len())
	}
	if len(sp.Pushed) > 0 {
		s += " FILTER " + strings.Join(sp.Pushed, " AND ")
	}
	if sp.ActualRows >= 0 {
		s += fmt.Sprintf(" (%d actual rows)", sp.ActualRows)
	}
	if sp.NarrowedVia != "" {
		s += " [narrowed via " + sp.NarrowedVia + " index]"
	}
	return s
}

// ExplainQuery parses and explains in one step.
func ExplainQuery(db *relational.Database, src string) (string, error) {
	stmt, err := Parse(src)
	if err != nil {
		return "", err
	}
	return Explain(db, stmt)
}

func limitText(n int) string {
	if n < 0 {
		return "ALL"
	}
	return fmt.Sprint(n)
}

func projectText(stmt *SelectStmt) string {
	parts := make([]string, 0, len(stmt.Items))
	for _, it := range stmt.Items {
		if it.Star {
			parts = append(parts, "*")
			continue
		}
		s := it.Expr.SQL()
		if it.Alias != "" {
			s += " AS " + it.Alias
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ", ")
}

func scanText(tr TableRef) string {
	if tr.Alias != "" {
		return tr.Table + " AS " + tr.Alias
	}
	return tr.Table
}
