// Package sql implements the embedded SQL engine QUEST executes its
// generated queries against: a parser for a SELECT dialect (joins,
// aggregation, DISTINCT, ORDER BY/LIMIT, LIKE and the full-text MATCH
// operator), a statistics-driven cost-based planner, and a streaming
// executor.
//
// # Architecture
//
// Execution is layered:
//
//	Parse → planSelect (planner) → streaming pipeline → statement tail
//
// The planner (plan.go) sits between Execute and the interpreter and makes
// four decisions per statement:
//
//   - Access paths. Each base table becomes a scan node. An equality
//     conjunct `col = literal` is routed through a per-column hash index,
//     an `IN (literals...)` conjunct through the union of the per-literal
//     hash postings, and `col MATCH 'kw'` through full-text postings
//     (fulltext.AttributeIndex.Rows), so a MATCH scan touches only the
//     rows containing every keyword token. Index structures are used when
//     the column is a declared key — primary key, foreign key, or
//     FK-referenced — or when the table has at least LazyIndexThreshold
//     rows, in which case the planner builds them on demand. Everything
//     else is a full scan. Range conjuncts (<, <=, >, >=, BETWEEN), which
//     QUEST never generates, have no access path of their own: they stay
//     pushed filters, compiled like any other comparison, on whichever
//     access path the other conjuncts choose.
//   - Predicate pushdown. The WHERE conjunction is split; single-table
//     conjuncts are evaluated inside the owning scan, below every join.
//     Conjuncts on the null-extended side of a LEFT JOIN are pinned above
//     that join (pushing them below would resurrect filtered rows), and
//     multi-table conjuncts run right after the earliest join that sees
//     all their tables. Aggregate or unresolvable conjuncts stay in the
//     final filter so errors surface exactly like the reference
//     interpreter's: per joined row.
//   - Join order. For statements joining three or more relations with
//     inner joins only, a Selinger-style enumerator (reorder.go) searches
//     the left-deep orders bottom-up over subsets of the join graph,
//     treating every ON conjunct and join-level WHERE conjunct as one
//     predicate pool and re-attaching each at the earliest step that sees
//     all its relations. Cost is the sum of estimated intermediate result
//     sizes; cross products are only considered when the join graph is
//     disconnected. Statements past ReorderMaxRelations, LEFT joins
//     (order is semantics there), SELECT * (column order is the written
//     order) and unresolvable ON conjuncts keep the written order.
//   - Join strategy. Equi-join conjuncts drive a hash join; the build
//     side is the side with the smaller cardinality estimate. LEFT joins
//     always build right so unmatched left rows can be null-extended.
//     Non-equi ONs fall back to a nested loop.
//
// # Cardinality estimation
//
// Estimates come from per-column statistics (relational.ColumnStats: row,
// NULL and distinct counts, min/max), built on a column's first use and
// kept exact by every Insert — a snapshot taken before an Insert is never
// served after it. Index probes are exact at plan time (the ordinals are
// captured); the remaining pushed conjuncts scale the estimate by
// statistics-based selectivities (estimate.go): equality as nonNull /
// Distinct rows (none outside [Min, Max]), IN as the sum of member
// equalities, IS NULL from the null fraction, AND/OR/NOT composed from
// their operands, and ranges and pattern operators (LIKE, MATCH) by fixed
// defaults. Equi-join steps use the
// textbook 1/max(V(l), V(r)) over the key columns' distinct counts. The
// estimates drive the join-order search and build-side selection, which
// is what makes them matter on skewed data — the pre-statistics planner
// halved the estimate per predicate and executed joins in written order.
//
// # Statement tail
//
// Execute, ExecuteStream, the streaming Exists and the coordinator's
// ExecuteRows feed their rows, in pipeline order, to one tail (runTail):
// project, drop a DISTINCT duplicate of an earlier row (the first is
// kept), skip OFFSET rows, emit up to LIMIT and stop the pipeline there
// (PlannerStats.LimitShortCircuits). The first error among the rows
// projected before the stop is returned. Only GROUP BY, aggregates and
// ORDER BY collect every row and run finish, which ExecuteFullScan, the
// reference, runs for every statement.
//
// # Existence by index walk
//
// Exists is the engine's PruneEmpty validation path, and most of its
// statements are joins that do have rows. Streaming them still builds
// every hash-join build side and writes a joined row per match before the
// first tuple reaches the stop, so a joined plan of the right shape is
// instead answered by semi-join checks over the equality indexes
// (exists.go), which never build a joined row. A candidate is a Steiner
// tree, so its join is acyclic and those checks decide it (Yannakakis).
//
// Eligibility is read off the plan alone, once, when it is built: at
// least one join; every step an inner join on exactly one equi-key column,
// with no residual ON conjunct and no WHERE conjunct placed on it; no
// final filter; every scan's remaining pushed conjuncts compiled (the
// conjuncts its access path serves are gone already); no GROUP BY,
// aggregate, HAVING, OFFSET or LIMIT 0; a projection of stars and column
// references that resolve against the joined columns, and an ORDER BY of
// such references or none. The last rule keeps Exists' error parity with
// Execute: the streaming path evaluates the projection, and the ORDER BY
// keys on its first row, and on an eligible statement those cannot fail.
//
// The walk roots the join tree — each step links its right scan to the
// scan owning its left key column — where a walk that finds no row is
// estimated to visit the fewest rows. That estimate starts from the scan's
// candidates (its access path's ordinals for an index, IN, range or MATCH
// access, every row for a full scan) and follows the planner's own
// statistics: pushed-conjunct selectivity per scan and 1/max(distinct
// keys) per join. The fewest candidates alone mislead: a 40-row table
// filtered to a few rows can fan out to thousands before a selective
// predicate three joins away refutes them all.
//
// A root candidate qualifies when it passes the compiled conjuncts and
// every child edge has a partner. A partner check probes the child's
// equality index with the key (the PK index, or one built on demand), and
// keeps a posting only if it is among the child's access-path ordinals,
// confirms the join, passes the child's conjuncts and qualifies in turn.
// It stops at the first such posting, and its verdict is memoised per
// (child, key) for the rest of the call, so the work is linear in the rows
// probed. The answer is true at the first qualifying root candidate.
//
// Index postings group values by Value.Key, which is coarser than the
// hash join's equality: every NaN shares one key, while the join tells
// NaN payloads apart. So a posting only nominates a partner, and the hash
// join's own test, joinKey hash equality plus joinKeysEqual, confirms it;
// the memo is keyed the same way. All walk state belongs to the call,
// since a cached plan serves concurrent validations.
//
// Everything else streams: LEFT joins, composite keys, nested-loop and
// residual ON steps, WHERE conjuncts spanning tables, interpreted
// conjuncts, OFFSET, expression projections and single-table statements.
// PlannerStats.ExistsFastPaths counts every Exists that materialized no
// result, and ExistsSemiJoins the subset the index walk answered.
//
// # Index-narrowed scans
//
// A planned full scan on one side of an inner hash join is narrowed at
// execution time once the other side is materialized: when the join
// builds left, the right table's probe scan; when it builds right at the
// first step, the base table's scan. The scan then reads, through the
// equality index on its first join-key column (the PK index or one built
// on demand), only the rows whose key equals the key of some materialized
// row, instead of every row. It applies when the table has at least
// LazyIndexThreshold rows, every pushed conjunct of the scan compiled to
// a closure (interpreted conjuncts can raise per row, and a
// skipped row must not hide an error), and the candidates stay below
// len(table)/narrowDivisor; past that bound the probe gives up mid-count
// and the scan reads every row. LEFT joins never narrow the preserved
// side. The decision is per execution, from actual sizes: plans, their
// cache keys, join order and plain EXPLAIN are unchanged, and
// ExplainAnalyze marks a narrowed scan [narrowed via <column> index].
//
// Ordering contract: a narrowed scan emits exactly the rows, in exactly
// the order, of the full scan it replaces, minus rows no materialized row
// can join. Candidates are visited in ascending ordinal order, which is
// the full scan's order, and the index's key equality (Value.Key) is
// implied by the join's match condition (hashValue equality plus
// Compare), so no skipped row could have matched. Pushed conjuncts, the
// join-key re-check and residuals run unchanged, so LIMIT short-circuits,
// OFFSET and the streaming Exists see the same row sequence.
//
// Every Result carries the QueryPlan that produced it — annotated with the
// actual per-operator cardinalities the execution observed, next to the
// planner's estimates — and Plan/Explain expose the same structure without
// executing; ExplainAnalyze executes and renders estimated vs actual rows.
// Tests assert access paths and join orders against it.
//
// # Joined rows and build sides
//
// The planned pipeline allocates per execution and join step, never per
// candidate row or key. Each join step writes every candidate pair (hash,
// build-left, nested-loop and null-extended LEFT candidates alike) into
// one joined-row buffer that its stream call makes, and a LEFT join makes
// its null extension once. So a joined row the pipeline yields is valid
// only until the emit it was passed to returns, and a consumer that keeps
// one copies it. Two do: a build-left step past the first, which keeps
// the previous step's rows as its build side, and the collecting arm of
// GROUP BY, aggregates and ORDER BY (runStatement). The statement tail
// keeps only projections, which are new rows; a single-table scan yields
// the stored rows themselves. The buffers live in the execution's frame,
// never on the plan, which the plan cache shares across goroutines.
//
// A hash join's build side (buildIndex, shared with the reference
// interpreter's join) is one map from key hash to the first row of its
// chain plus one next-position slice: two allocations, not one per key.
// The chains are built back to front, so a probe visits its partners in
// the build side's row order. A right side read through an index, IN or
// MATCH probe is collected into a slice sized by the probe's
// ordinals, an upper bound on its rows.
//
// # Plan cache and invalidation
//
// Plans are memoized in a package-level LRU keyed on (database ID, the
// referenced tables' individual versions, canonical SQL without a positive
// LIMIT). The plan never reads a positive LIMIT — the statement tail
// applies it — so `... LIMIT 20` and its unlimited twin share one entry,
// while LIMIT 0 and OFFSET stay in the key because they decide whether
// Exists may walk the join tree. The key is never a statement's shape:
// a plan captures its probe ordinals per literal. The
// per-table-version contract: the key embeds one (table, mutation
// counter) pair for each table the statement references
// — and only those — so an Insert into one table makes exactly the
// cached plans that read it unreachable, while plans over every other
// table keep serving. Cached index-probe ordinals can therefore never go
// stale: any mutation of a scanned table changes that table's version
// and thus the key. The same contract extends upward — the engine's
// query cache validates its entries against the same per-table counters
// (wrapper.TableVersioner) instead of a global epoch.
//
// Equality indexes and column statistics are maintained exactly by
// Insert; MATCH posting indexes and statistics snapshots are
// version-checked on first use after a mutation and either snapshotted
// from what Insert maintained or rebuilt (relational's incremental
// maintenance), so the planner never reads stale statistics or index
// postings. Planned queries are immutable after construction
// (executions record actual cardinalities into per-run copies), so one
// cached plan serves concurrent Execute/Exists calls.
//
// ExecuteFullScan retains the pre-planner interpreter (full scans, WHERE
// evaluated per joined row) as the reference implementation; the
// equivalence suite in equivalence_test.go continuously checks the two
// paths agree — NULL-key join rows, LEFT JOIN edge cases, reordered
// multi-joins, range filters and IN probes included.
//
// # Pushdown fragments (distributed execution contract)
//
// Fragments and ExecuteRows split a statement along the coordinator/backend
// seam the sharded execution layer (internal/shard) is built on. The
// contract:
//
//   - What a backend executes. One TableFragment per FROM/JOIN table
//     reference, whose Stmt is `SELECT * FROM <table> [WHERE <pushed>]` —
//     the single-table WHERE conjuncts that are legal below every join
//     (the planner's own pushdown rule: conjuncts on the null-extended
//     side of a LEFT JOIN stay above, as do aggregate, multi-table,
//     constant and unresolvable conjuncts) — or, for an existence probe
//     (ExistsFragments), the same WHERE under a select list of the
//     table's join-key columns (TableFragment.Cols, plain column items,
//     no DISTINCT). A backend runs the fragment with whatever local plan
//     it likes — the in-memory shards use their own index access paths —
//     and returns the qualifying rows in schema column order, or in Cols
//     order. Fragment SQL()-serializes, so any engine that answers a
//     single-table SELECT can serve it.
//   - What the coordinator merges. ExecuteRows runs joins and the full
//     WHERE (re-evaluating pushed conjuncts is harmless — pushdown is a
//     bandwidth optimization, never the only evaluation) over the gathered
//     rows with the reference interpreter's semantics, then the statement
//     tail, so the result is multiset-identical to single-node execution
//     over the union of the partitions. Errors keep their per-row surfacing: a conjunct no
//     backend could check still fails at the coordinator exactly where
//     the interpreter would fail it.
//   - What the coordinator decides from keys alone. When ExistsFragments
//     accepts a join statement — a tree of single-column inner
//     equi-joins, every WHERE conjunct pushed, a select list of columns,
//     no aggregate, GROUP BY, HAVING or OFFSET — the key-only rows decide
//     existence: SemiJoinExists makes one bottom-up semi-join pass over
//     them, pairing keys exactly as ExecuteRows' hash join does, and the
//     join has a row iff the root keeps one. No joined row is built.
//   - Partition pruning. A fragment whose pushed conjuncts pin the
//     table's primary key to an equality literal or an all-literal IN
//     list carries those values as PKValues; a hash-partitioned
//     deployment needs to consult only the shards they route to (an
//     IN list of NULLs prunes every shard). Values that do not coerce to
//     the key's type must not be pruned on — cross-type comparisons can
//     still match.
//   - Semi-join reduction. When InnerJoinKeys reports a statement's join
//     keys (all joins inner, every ON conjunct a column equality the hash
//     join keys on), the coordinator may gather fragments in waves and
//     Restrict a later fragment to `col IN (keys)`, the distinct join
//     keys of an already-gathered neighbour. Such a fragment returns a
//     subset of its rows in the same relative order — shards answer the
//     list from the equality index in ascending row order, the order of
//     the full scan — and every dropped row matches no neighbour row, so
//     ExecuteRows returns the same rows in the same order as over the
//     unreduced fragments. A restriction on the primary key also becomes
//     the fragment's PKValues.
//   - IN-list semantics and cost. A backend answers `col IN (literals)`
//     exactly as relational.Equal against each literal: numbers compare
//     by their float64 widening whatever their INT/FLOAT type (so +0
//     equals -0, and ints above 2^53 that widen to the same float64 are
//     equal), NaN equals every number, strings and booleans equal only
//     their own kind, and NULL equals nothing. The planner serves the list
//     through the column's equality index when it is the scan's access
//     path and otherwise compiles it into a hashed set (vector.go), so a
//     reduced fragment costs time linear in the rows it reads, not rows ×
//     keys. A bare single-table `SELECT *` streams the stored rows
//     themselves: rows handed to a wrapper.RowSink are read-only.
//
// The internal/conformance differential suite holds both halves to this
// contract against FullAccessSource at 1, 3 and 7 shards — with the
// backends in-process and behind the wire protocol alike.
//
// # Wire protocol
//
// When a backend lives in another process (internal/transport,
// cmd/questshardd), the fragment contract crosses the network in
// length-prefixed frames:
//
//	uint32 big-endian payload length | 1 frame-type byte | payload
//
// There is one protocol and nothing is negotiated: every connection
// carries every frame below from its first request, so a fleet runs one
// build. Codes 0x07 and 0x18 once carried a version hello and its ack;
// they are retired and never reused, and a server answers a stray 0x07
// like any unknown request, with an in-band error.
//
// Requests travel as canonical SQL text — a fragment serializes as its
// Stmt.SQL(), so the statement itself is the wire form and any engine
// that parses the dialect can serve a shard. Responses use the binary row
// codec in codec.go:
//
//   - A value is one tag byte (NULL, INT, FLOAT, TEXT, TRUE, FALSE)
//     followed by its payload: varint integers, 8-byte big-endian IEEE
//     754 floats, uvarint-length-prefixed strings. The encoding is exact
//     and type-preserving — Int(3) and Float(3) stay distinct — because
//     the conformance contract compares results byte for byte.
//   - A row is a uvarint cell count followed by its values; a result
//     header is a uvarint column count followed by length-prefixed names.
//
// The read requests and their responses:
//
//   - query (0x01): SQL text; answers one columns frame (0x10, the
//     header), any number of row-batch frames, and one end frame (0x12)
//     carrying the total row count as an integrity check. Batches default
//     to 256 rows, cut early at a byte cap, so large results stream and
//     the coordinator can start merging before the shard finishes.
//     Servers produce batches incrementally through ExecuteStream when
//     the backend supports it, so a shard never holds more than one batch
//     of a result in memory.
//   - exists (0x02): SQL text; answers a bool frame (0x13).
//   - stats (0x03): table and column; answers an encoded
//     relational.ColumnStats (0x15; AppendColumnStats/DecodeColumnStats —
//     exported fields only, with derived state rehydrated on decode).
//   - score (0x04) and edge (0x05): keyword relevance and join-edge
//     distance; each answers an 8-byte float (0x14).
//   - ping (0x06): empty; answers an empty pong (0x17), the transport's
//     lowest-cost health check and the liveness probe.
//
// Each row batch ships in one of two forms, chosen per batch from the
// batch itself. A row frame (0x11) is a uvarint row count followed by
// that many rows. A columnar frame (0x19, columnar.go) is a uvarint row
// count and column count followed by one encoded vector per column, each
// opening with an encoding tag:
//
//   - Plain (0): the column's cells in row order, value codec as above.
//   - Dictionary (1): uvarint dictionary size, the distinct encoded
//     values, then one uvarint index per row — chosen for low-cardinality
//     columns (at most 512 distinct values, and never wider than plain).
//   - Run-length (2): uvarint run count, then (uvarint length, value)
//     pairs that must tile the batch exactly — chosen when sorted or
//     constant columns make runs pay.
//
// The encoder picks per column by measuring: each candidate is built and
// kept only if strictly smaller, with distinct counts from the backend's
// column statistics (sql.EncodingHint) vetoing hopeless dictionary
// attempts up front. Equality is on encoded bytes, so type-preservation
// survives compression (Int(3) and Float(3) never share a dictionary
// slot or a run). A batch that exceeds the columnar caps, or whose
// columnar form is no smaller than its row form (a one-row result many
// columns wide, say), ships as a row frame instead, so one stream may mix
// both kinds and the columnar form never costs bytes. Decoding enforces
// the same caps the encoder obeys (rows, columns, total cells, dictionary
// size); truncated payloads, out-of-range indexes, runs that do not tile
// and trailing bytes are typed protocol errors — fuzzed continuously
// (FuzzColumnarDecode).
//
// The write and fleet-control requests and their responses:
//
//   - insert (0x08): uvarint epoch, then table name and one encoded row.
//     Sent by the coordinator to the shard group's primary. The primary
//     applies the row, synchronously replicates it to its backups, and
//     answers with an insert-ack (0x1a): uvarint epoch, uvarint op
//     sequence, then a per-backup list of (name, ok byte) — the
//     coordinator pulls any not-ok backup from its read rotation until
//     replay.
//   - replicate (0x09): uvarint epoch, uvarint sequence, table, row.
//     Sent primary → backup (and coordinator → backup during replay). A
//     backup applies sequences strictly in order: seq == lastSeq+1
//     applies, seq <= lastSeq acks idempotently (duplicate delivery
//     after a retry), a gap answers a lagging error that routes the
//     backup into replay.
//   - configure (0x0a): uvarint epoch, role byte (none/primary/backup),
//     then the primary's backup name list. Installs a replica's role and
//     fences the epoch; answers a status response.
//   - status (0x0b): empty; answers a status response (0x1b): uvarint
//     epoch, role byte, uvarint last applied sequence — what probes and
//     failover decisions read.
//   - ops (0x0c): uvarint after-sequence, uvarint max; answers the
//     retained op-log suffix (0x1c) as (uvarint seq, table, row) entries
//     — the replay feed for a rejoining replica.
//
// Writes are epoch-fenced: every insert, replicate and configure carries
// the coordinator's epoch, and a replica that has seen a newer epoch
// rejects older ones with a fenced error. A failover bumps the epoch, so
// a deposed primary's in-flight writes die at the replicas instead of
// forking history. A server whose backend accepts no writes answers
// inserts and replicates with a read-only error.
//
// Rejections arrive as an error frame (0x16: kind byte + message) in
// place of the response. Query-level errors are final and are never
// retried, preserving error-disposition parity with local execution;
// the fenced, lagging and read-only kinds surface client-side as typed
// sentinels. An error frame after row batches have already been written
// aborts the stream (the connection is dropped — the header cannot be
// unsent). Frames that are truncated, over-long or undecodable are typed
// protocol errors — the transport closes the connection and retries
// elsewhere rather than hanging — and the server's request loop is
// fuzzed against arbitrary input (FuzzServeConn).
//
// Exchanges are strict request/response per connection (no pipelining);
// clients get concurrency from a connection pool, and resilience from
// retry-with-backoff plus hedged reads (see internal/transport).
package sql
