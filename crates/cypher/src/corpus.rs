//! The shared differential-parity corpus: 58 representative Cypher queries
//! over the deterministic default IYP dataset.
//!
//! The corpus is consumed in three places, which is why it lives in the
//! library rather than a test file:
//!
//! * `tests/parity_corpus.rs` runs every query and compares the serialized
//!   results byte-for-byte against recorded goldens
//!   (`tests/goldens/parity_corpus.json`);
//! * `chatiyp-core`'s cache tests prove cached results are byte-identical
//!   to uncached execution across the whole corpus;
//! * the load benchmark (`benchmark/`) replays the corpus as its
//!   `cypher_hot` workload and checks every body against an oracle.
//!
//! Changing, reordering, or extending this list requires re-recording the
//! goldens (see the ignored `regenerate_goldens` test).

/// Each entry exercises a distinct slice of the executor (anchors,
/// expansion, var-length, optional match, aggregation, sorting,
/// pagination, unwind, union, write-free functions, and combinations).
pub const PARITY_QUERIES: &[&str] = &[
    // -- Anchors: index seek, label scan, bound re-use -----------------
    "MATCH (a:AS {asn: 2497}) RETURN a.name",
    "MATCH (a:AS {asn: 15169}) RETURN a.asn, a.name",
    "MATCH (a:AS) RETURN count(a)",
    "MATCH (c:Country {country_code: 'JP'}) RETURN c.name, c.population",
    "MATCH (n:Tag) RETURN n.label ORDER BY n.label",
    "MATCH (a:AS) WHERE a.asn > 60000 RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.asn >= 2497 AND a.asn < 3000 RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS) WHERE a.name CONTAINS 'Tele' RETURN a.name ORDER BY a.name",
    "MATCH (a:AS) WHERE a.name STARTS WITH 'A' RETURN a.name ORDER BY a.name LIMIT 12",
    // -- One-hop expansion ---------------------------------------------
    "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN count(p)",
    "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix) RETURN p.prefix ORDER BY p.prefix",
    "MATCH (a:AS {asn: 2497})-[:COUNTRY]->(c:Country) RETURN c.country_code",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: 'US'}) RETURN count(a)",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS) RETURN b.asn ORDER BY b.asn",
    "MATCH (a:AS {asn: 2497})<-[:DEPENDS_ON]-(b:AS) RETURN count(b)",
    "MATCH (d:DomainName)-[:RESOLVES_TO]->(p:Prefix) RETURN count(d)",
    "MATCH (x:IXP)<-[:MEMBER_OF]-(a:AS) RETURN x.name, count(a) ORDER BY count(a) DESC, x.name LIMIT 8",
    // -- Multi-hop chains ----------------------------------------------
    "MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix)<-[:RESOLVES_TO]-(d:DomainName) RETURN count(d)",
    "MATCH (a:AS)-[:MANAGED_BY]->(o:Organization)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(a) ORDER BY count(a) DESC, c.country_code LIMIT 10",
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country)<-[:COUNTRY]-(b:AS) WHERE a.asn < b.asn AND c.country_code = 'JP' RETURN count(*)",
    "MATCH (f:Facility)<-[:LOCATED_IN]-(a:AS)-[:COUNTRY]->(c:Country {country_code: 'DE'}) RETURN count(DISTINCT f)",
    // -- Variable-length paths -----------------------------------------
    "MATCH (a:AS {asn: 2497})-[:PEERS_WITH*1..2]-(b:AS) RETURN count(DISTINCT b)",
    "MATCH (a:AS {asn: 2497})-[:DEPENDS_ON*1..3]->(b:AS) RETURN DISTINCT b.asn ORDER BY b.asn",
    "MATCH p = shortestPath((a:AS {asn: 2497})-[:PEERS_WITH*1..4]-(b:AS {asn: 3356})) RETURN length(p)",
    "MATCH (a:AS {asn: 7018})-[:PEERS_WITH*2..2]-(b:AS) RETURN count(DISTINCT b)",
    // -- OPTIONAL MATCH ------------------------------------------------
    "MATCH (a:AS {asn: 2497}) OPTIONAL MATCH (a)-[:MEMBER_OF]->(x:IXP) RETURN a.asn, count(x)",
    "MATCH (a:AS) WHERE a.asn > 60000 OPTIONAL MATCH (a)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, count(p) ORDER BY a.asn",
    "MATCH (c:Country) OPTIONAL MATCH (c)<-[:COUNTRY]-(a:AS) RETURN c.country_code, count(a) ORDER BY count(a) DESC, c.country_code LIMIT 12",
    "MATCH (a:AS {asn: 2497}) OPTIONAL MATCH (a)-[:RESOLVES_TO]->(d:DomainName) RETURN a.name, d.name",
    // -- Aggregation ---------------------------------------------------
    "MATCH (c:Country) RETURN sum(c.population)",
    "MATCH (c:Country) RETURN avg(c.population), min(c.population), max(c.population)",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, count(p) AS prefixes ORDER BY prefixes DESC, a.asn LIMIT 10",
    "MATCH (a:AS) WHERE a.asn < 3000 RETURN collect(a.asn)",
    "MATCH (c:Country) RETURN stdev(c.population)",
    "MATCH (c:Country) RETURN percentileCont(c.population, 0.5)",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN count(DISTINCT c.country_code)",
    "MATCH (p:Prefix) RETURN p.af, count(p) ORDER BY p.af",
    "MATCH (a:AS)-[r:POPULATION]->(c:Country {country_code: 'JP'}) RETURN a.asn, r.percent ORDER BY r.percent DESC, a.asn LIMIT 5",
    // -- WITH chaining -------------------------------------------------
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) WITH a, count(p) AS n WHERE n > 8 RETURN a.asn, n ORDER BY n DESC, a.asn",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country) WITH c, count(a) AS members WITH avg(members) AS mean RETURN mean",
    "MATCH (a:AS) WITH a ORDER BY a.asn LIMIT 5 MATCH (a)-[:COUNTRY]->(c:Country) RETURN a.asn, c.country_code",
    // -- UNWIND --------------------------------------------------------
    "UNWIND [1, 2, 3] AS x RETURN x * 10",
    "UNWIND [2497, 15169, 7018] AS asn MATCH (a:AS {asn: asn}) RETURN a.name ORDER BY a.name",
    "UNWIND ['JP', 'US'] AS code MATCH (c:Country {country_code: code})<-[:COUNTRY]-(a:AS) RETURN code, count(a) ORDER BY code",
    "UNWIND [1, 2, 2, 3, 3, 3] AS x RETURN x, count(*) ORDER BY x",
    // -- ORDER BY / SKIP / LIMIT / DISTINCT ----------------------------
    "MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 10",
    "MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC SKIP 5 LIMIT 5",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code",
    "MATCH (a:AS) RETURN a.name ORDER BY a.name SKIP 40 LIMIT 3",
    // -- UNION ---------------------------------------------------------
    "MATCH (a:AS {asn: 2497}) RETURN a.name AS name UNION MATCH (a:AS {asn: 15169}) RETURN a.name AS name",
    "MATCH (c:Country {country_code: 'JP'}) RETURN c.name AS n UNION ALL MATCH (c:Country {country_code: 'JP'}) RETURN c.name AS n",
    "MATCH (a:AS) WHERE a.asn < 3000 RETURN a.asn AS x UNION MATCH (a:AS) WHERE a.asn < 3500 RETURN a.asn AS x ORDER BY x",
    // -- Expressions, functions, CASE ----------------------------------
    "MATCH (a:AS {asn: 2497}) RETURN labels(a), size(a.name)",
    "MATCH (a:AS {asn: 2497})-[r:COUNTRY]->(c) RETURN type(r)",
    "MATCH (a:AS {asn: 2497}) RETURN coalesce(a.missing, a.name, 'fallback')",
    "MATCH (a:AS) RETURN CASE WHEN a.asn < 3000 THEN 'low' ELSE 'high' END AS bucket, count(*) ORDER BY bucket",
    "MATCH (c:Country {country_code: 'JP'}) RETURN [x IN [1,2,3,4] WHERE x > 2 | x * 10]",
    "RETURN 1 + 2 * 3, 'a' + 'b', 7 % 3, -(4.5)",
];
