// Package datasets builds the three demonstration databases of the paper as
// deterministic synthetic equivalents:
//
//   - IMDB: a simple star schema with many rows (movies, people, cast),
//   - Mondial: a complex, highly connected schema with few rows (countries,
//     cities, rivers, organizations, borders, ...),
//   - DBLP: a large instance over a non-trivial schema (authors, papers,
//     venues, authorship, citations).
//
// Substitution note: the paper demos against live dumps of the real
// databases; those are not available offline, so these generators produce
// seeded pseudo-data with the same schema shapes, referential
// structure and — importantly for QUEST — controllable lexical ambiguity:
// tokens deliberately recur across tables (a person surname appearing
// inside movie titles, a country name inside organization names) so keyword
// queries genuinely have multiple plausible configurations.
package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/relational"
)

// Config controls generator size and determinism.
type Config struct {
	// Seed drives all pseudo-randomness; equal seeds give equal databases.
	Seed int64
	// Scale linearly multiplies the row counts of the scalable tables
	// (1 = the default "demo" size; benches sweep this).
	Scale int
}

// DefaultConfig is the demo-sized configuration.
func DefaultConfig() Config { return Config{Seed: 42, Scale: 1} }

func (c Config) scale(base int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	return base * s
}

// Word pools. Kept small on purpose: collisions across tables are what make
// keyword queries ambiguous, which is the regime QUEST is designed for.

var firstNames = []string{
	"james", "mary", "robert", "patricia", "john", "jennifer", "michael",
	"linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
	"joseph", "jessica", "thomas", "sarah", "charles", "karen", "marco",
	"giulia", "luca", "sofia", "pierre", "claire", "hans", "greta", "akira",
	"yuki", "carlos", "lucia", "ivan", "olga", "lars", "ingrid",
}

var lastNames = []string{
	"smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
	"davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
	"wilson", "anderson", "taylor", "moore", "jackson", "martin", "lee",
	"perez", "thompson", "white", "harris", "sanchez", "clark", "ramirez",
	"lewis", "robinson", "walker", "young", "allen", "king", "wright",
	"scott", "torres", "nguyen", "hill", "flores", "green", "adams",
	"nelson", "baker", "hall", "rivera", "campbell", "mitchell", "carter",
	"rossi", "ferrari", "russo", "bianchi", "romano", "colombo", "ricci",
	"marino", "greco", "bruno", "gallo", "conti", "deluca", "costa",
	"giordano", "mancini", "rizzo", "lombardi", "moretti", "spielberg",
	"scorsese", "kurosawa", "hitchcock", "kubrick", "fellini", "bergman",
}

var titleNouns = []string{
	"night", "city", "river", "dream", "shadow", "king", "garden", "star",
	"ocean", "mountain", "winter", "summer", "stone", "fire", "storm",
	"silence", "empire", "secret", "journey", "memory", "bridge", "island",
	"forest", "mirror", "castle", "desert", "harbor", "light", "thunder",
	"crystal", "phantom", "legend", "horizon", "labyrinth", "eclipse",
}

var titleAdjectives = []string{
	"dark", "silent", "lost", "golden", "broken", "hidden", "eternal",
	"crimson", "savage", "gentle", "frozen", "burning", "forgotten",
	"invisible", "electric", "ancient", "wild", "sacred", "hollow",
	"distant", "restless", "midnight", "scarlet", "emerald", "velvet",
}

var genres = []string{
	"drama", "comedy", "thriller", "horror", "romance", "action",
	"documentary", "animation", "western", "fantasy", "mystery", "noir",
}

var roles = []string{"actor", "actress", "director", "producer", "writer", "composer", "editor"}

var countryNames = []string{
	"italy", "france", "germany", "spain", "portugal", "austria",
	"switzerland", "belgium", "netherlands", "denmark", "norway", "sweden",
	"finland", "poland", "hungary", "greece", "ireland", "iceland",
	"croatia", "slovenia", "slovakia", "estonia", "latvia", "lithuania",
	"romania", "bulgaria", "albania", "serbia", "ukraine", "moldova",
	"turkey", "cyprus", "malta", "luxembourg", "monaco", "andorra",
}

var cityStems = []string{
	"porto", "villa", "san", "monte", "castel", "fonte", "terra", "aqua",
	"campo", "ponte", "val", "roca", "bella", "gran", "alta", "nova",
	"riva", "sole", "mar", "lago",
}

var citySuffixes = []string{
	"burg", "ville", "ton", "stadt", "grad", "polis", "ford", "haven",
	"field", "bridge", "mouth", "port", "holm", "berg", "dorf", "ia",
}

var riverStems = []string{
	"danube", "rhine", "rhone", "ebro", "tagus", "loire", "seine", "elbe",
	"oder", "vistula", "tiber", "arno", "po", "drava", "sava", "volga",
	"dniester", "douro", "garonne", "meuse",
}

var venueNames = []string{
	"vldb", "sigmod", "icde", "edbt", "cikm", "kdd", "www", "sigir",
	"pods", "icdt", "er", "dexa", "dasfaa", "ssdbm", "tods", "tkde",
	"vldbj", "is", "dke", "jacm",
}

var researchTerms = []string{
	"keyword", "search", "relational", "database", "query", "semantic",
	"probabilistic", "index", "graph", "steiner", "ranking", "schema",
	"markov", "learning", "evidence", "join", "optimization", "stream",
	"distributed", "transaction", "recovery", "concurrency", "mining",
	"clustering", "classification", "integration", "provenance", "skyline",
	"xml", "web", "ontology", "mapping", "crowdsourcing", "privacy",
}

func pick(r *rand.Rand, pool []string) string {
	return pool[r.Intn(len(pool))]
}

func personName(r *rand.Rand) string {
	return pick(r, firstNames) + " " + pick(r, lastNames)
}

func movieTitle(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return "the " + pick(r, titleAdjectives) + " " + pick(r, titleNouns)
	case 1:
		return pick(r, titleAdjectives) + " " + pick(r, titleNouns)
	case 2:
		// A surname inside a title: deliberate cross-table ambiguity.
		return "the " + pick(r, titleNouns) + " of " + pick(r, lastNames)
	default:
		return pick(r, titleNouns) + " and " + pick(r, titleNouns)
	}
}

func cityName(r *rand.Rand) string {
	return pick(r, cityStems) + pick(r, citySuffixes)
}

func paperTitle(r *rand.Rand) string {
	a, b, c := pick(r, researchTerms), pick(r, researchTerms), pick(r, researchTerms)
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf("%s %s for %s systems", a, b, c)
	case 1:
		return fmt.Sprintf("efficient %s %s over %s data", a, b, c)
	default:
		return fmt.Sprintf("on the %s of %s %s", a, b, c)
	}
}

// mustInsert panics on insert errors: generator bugs, not runtime input.
func mustInsert(db *relational.Database, table string, row relational.Row) {
	if err := db.Insert(table, row); err != nil {
		panic(fmt.Sprintf("datasets: %s: %v", table, err))
	}
}
