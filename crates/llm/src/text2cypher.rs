//! Text-to-Cypher translation: the TextToCypherRetriever's core.
//!
//! The canonical renderer maps an [`Intent`] to correct Cypher (these are
//! also the benchmark's gold queries). The [`Translator`] wraps it with
//! the simulated LM: it parses the question, and — with a probability
//! that grows with structural complexity — injects one of the structural
//! mistakes catalogued in [`crate::errors`], applied as an AST mutation so
//! the broken query is still syntactically valid Cypher (as LLM mistakes
//! usually are).

use crate::errors::{draw_error, TranslationError};
use crate::intent::{parse_question, EntityCatalog, Intent};
use crate::model::SimLm;
use iyp_cypher::ast::{Clause, Expr, Query, RelDir};
use iyp_cypher::{parse, query_to_string};
use serde::{Deserialize, Serialize};

/// The outcome of translating one question.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Translation {
    /// The produced Cypher, if any.
    pub cypher: Option<String>,
    /// The parsed intent, if the question was understood.
    pub intent: Option<Intent>,
    /// The structural error injected, if the simulated model erred.
    pub injected_error: Option<TranslationError>,
}

/// Renders the canonical (gold-correct) Cypher for an intent.
pub fn canonical_cypher(intent: &Intent) -> String {
    use Intent::*;
    match intent {
        AsName { asn } => format!("MATCH (a:AS {{asn: {asn}}}) RETURN a.name"),
        AsnOfName { name } => format!("MATCH (a:AS {{name: '{name}'}}) RETURN a.asn"),
        AsCountry { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:COUNTRY]->(c:Country) RETURN c.country_code"
        ),
        CountAsInCountry { country } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: '{country}'}}) RETURN count(a)"
        ),
        AsRank { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[r:RANK]->(:Ranking {{name: 'CAIDA ASRank'}}) RETURN r.rank"
        ),
        CountPrefixes { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:ORIGINATE]->(p:Prefix) RETURN count(p)"
        ),
        PrefixOrigin { prefix } => format!(
            "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix {{prefix: '{prefix}'}}) RETURN a.asn"
        ),
        DomainRank { domain } => format!(
            "MATCH (d:DomainName {{name: '{domain}'}})-[r:RANK]->(:Ranking {{name: 'Tranco'}}) RETURN r.rank"
        ),
        IxpCountry { ixp } => format!(
            "MATCH (x:IXP {{name: '{ixp}'}})-[:COUNTRY]->(c:Country) RETURN c.country_code"
        ),
        IxpMemberCount { ixp } => format!(
            "MATCH (a:AS)-[:MEMBER_OF]->(x:IXP {{name: '{ixp}'}}) RETURN count(a)"
        ),
        PopulationShare { asn, country } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[p:POPULATION]->(c:Country {{country_code: '{country}'}}) RETURN p.percent"
        ),
        OrgOfAs { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:MANAGED_BY]->(o:Organization) RETURN o.name"
        ),
        TopAsInCountryByPrefixes { country, n } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: '{country}'}}) \
             MATCH (a)-[:ORIGINATE]->(p:Prefix) \
             RETURN a.asn, count(p) AS cnt ORDER BY cnt DESC, a.asn LIMIT {n}"
        ),
        TopPopulationAs { country } => format!(
            "MATCH (a:AS)-[p:POPULATION]->(c:Country {{country_code: '{country}'}}) \
             RETURN a.asn, p.percent ORDER BY p.percent DESC, a.asn LIMIT 1"
        ),
        PrefixesAfCount { asn, af } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:ORIGINATE]->(p:Prefix {{af: {af}}}) RETURN count(p)"
        ),
        IxpMembersFromCountry { ixp, country } => format!(
            "MATCH (a:AS)-[:MEMBER_OF]->(x:IXP {{name: '{ixp}'}}), \
             (a)-[:COUNTRY]->(c:Country {{country_code: '{country}'}}) RETURN count(a)"
        ),
        SharedIxps { a, b } => format!(
            "MATCH (a:AS {{asn: {a}}})-[:MEMBER_OF]->(x:IXP)<-[:MEMBER_OF]-(b:AS {{asn: {b}}}) \
             RETURN x.name ORDER BY x.name"
        ),
        TopRankedInCountry { country } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: '{country}'}}) \
             MATCH (a)-[r:RANK]->(:Ranking {{name: 'CAIDA ASRank'}}) \
             RETURN a.asn, r.rank ORDER BY r.rank, a.asn LIMIT 1"
        ),
        AvgPrefixesInCountry { country } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: '{country}'}}) \
             OPTIONAL MATCH (a)-[:ORIGINATE]->(p:Prefix) \
             WITH a, count(p) AS cnt RETURN avg(cnt)"
        ),
        TaggedAsInCountry { tag, country } => format!(
            "MATCH (a:AS)-[:CATEGORIZED]->(t:Tag {{label: '{tag}'}}), \
             (a)-[:COUNTRY]->(c:Country {{country_code: '{country}'}}) RETURN count(a)"
        ),
        TransitiveUpstreams { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:DEPENDS_ON*1..3]->(u:AS) \
             RETURN DISTINCT u.asn ORDER BY u.asn"
        ),
        CommonUpstreams { a, b } => format!(
            "MATCH (a:AS {{asn: {a}}})-[:DEPENDS_ON]->(u:AS)<-[:DEPENDS_ON]-(b:AS {{asn: {b}}}) \
             RETURN u.asn ORDER BY u.asn"
        ),
        UpstreamCountries { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:DEPENDS_ON]->(u:AS)-[:COUNTRY]->(c:Country) \
             RETURN DISTINCT c.country_code ORDER BY c.country_code"
        ),
        TopDomainOnAs { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:ORIGINATE]->(p:Prefix)<-[:RESOLVES_TO]-(d:DomainName)\
             -[r:RANK]->(:Ranking {{name: 'Tranco'}}) \
             RETURN d.name, r.rank ORDER BY r.rank, d.name LIMIT 1"
        ),
        UpstreamPrefixCount { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:DEPENDS_ON]->(u:AS)-[:ORIGINATE]->(p:Prefix) \
             RETURN count(DISTINCT p.prefix)"
        ),
        PopulationOfTopRanked { country } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: '{country}'}}) \
             MATCH (a)-[r:RANK]->(:Ranking {{name: 'CAIDA ASRank'}}) \
             WITH a ORDER BY r.rank LIMIT 1 \
             MATCH (a)-[p:POPULATION]->(c:Country {{country_code: '{country}'}}) \
             RETURN p.percent"
        ),
        DomainsOnAs { asn } => format!(
            "MATCH (a:AS {{asn: {asn}}})-[:ORIGINATE]->(p:Prefix)<-[:RESOLVES_TO]-(d:DomainName) \
             RETURN DISTINCT d.name ORDER BY d.name"
        ),
        ShortestDependencyPath { a, b } => format!(
            "MATCH p = shortestPath((a:AS {{asn: {a}}})-[:DEPENDS_ON*1..4]->(b:AS {{asn: {b}}})) \
             RETURN length(p)"
        ),
        TransitFreeInCountry { country } => format!(
            "MATCH (a:AS)-[:COUNTRY]->(c:Country {{country_code: '{country}'}}) \
             WHERE NOT (a)-[:DEPENDS_ON]->(:AS) RETURN a.asn ORDER BY a.asn"
        ),
        HegemonyOfAs { asn } => {
            format!("MATCH (a:AS {{asn: {asn}}}) RETURN a.hegemony")
        }
    }
}

/// The text-to-Cypher translator.
pub struct Translator {
    /// The simulated LM driving error injection.
    pub lm: SimLm,
    /// Entity catalog for mention resolution.
    pub catalog: EntityCatalog,
}

impl Translator {
    /// Creates a translator.
    pub fn new(lm: SimLm, catalog: EntityCatalog) -> Self {
        Translator { lm, catalog }
    }

    /// Translates a question into Cypher, possibly with an injected
    /// structural error.
    pub fn translate(&self, question: &str) -> Translation {
        self.translate_attempt_with(question, 0, &self.catalog)
    }

    /// Translation with an attempt counter, resolving mentions against
    /// an explicit catalog: re-prompting an LLM after a failure redraws
    /// its mistakes, so each attempt gets an independent error draw
    /// (attempt 0 is the plain [`Translator::translate`]), and a pipeline
    /// whose catalog is versioned alongside the graph passes the one
    /// paired with the snapshot it executes against.
    pub fn translate_attempt_with(
        &self,
        question: &str,
        attempt: u32,
        catalog: &EntityCatalog,
    ) -> Translation {
        let Some(intent) = parse_question(question, catalog) else {
            return Translation {
                cypher: None,
                intent: None,
                injected_error: Some(TranslationError::NoQuery),
            };
        };
        let complexity = intent.complexity();
        let canonical = canonical_cypher(&intent);
        let key = if attempt == 0 {
            question.to_string()
        } else {
            format!("retry{attempt}:{question}")
        };
        if !self.lm.translation_fails(&key, complexity) {
            return Translation {
                cypher: Some(canonical),
                intent: Some(intent),
                injected_error: None,
            };
        }
        let (hops, _, _, _) = intent.structure();
        let pick = self.lm.choose(&format!("errkind:{key}"), 64);
        let error = draw_error(pick, hops);
        let mutated = mutate_query(&canonical, error);
        Translation {
            cypher: mutated,
            intent: Some(intent),
            injected_error: Some(error),
        }
    }
}

/// Applies a structural mutation to a query, returning the mutated Cypher
/// (or `None` for [`TranslationError::NoQuery`] / unmutatable shapes).
pub fn mutate_query(cypher: &str, error: TranslationError) -> Option<String> {
    if error == TranslationError::NoQuery {
        return None;
    }
    let mut ast = parse(cypher).ok()?;
    let changed = match error {
        TranslationError::WrongRelType => mutate_rel_type(&mut ast),
        TranslationError::MissingHop => mutate_drop_hop(&mut ast),
        TranslationError::WrongDirection => mutate_flip_direction(&mut ast),
        TranslationError::WrongProperty => mutate_property_name(&mut ast),
        TranslationError::DroppedFilter => mutate_drop_filter(&mut ast),
        TranslationError::WrongAggregate => mutate_aggregate(&mut ast),
        TranslationError::NoQuery => false,
    };
    if changed {
        Some(query_to_string(&ast))
    } else {
        // The drawn mutation doesn't apply to this shape; degrade to a
        // direction flip, then to a property rename, else give up.
        if error != TranslationError::WrongDirection && mutate_flip_direction(&mut ast) {
            return Some(query_to_string(&ast));
        }
        if error != TranslationError::WrongProperty && mutate_property_name(&mut ast) {
            return Some(query_to_string(&ast));
        }
        None
    }
}

/// Schema-plausible wrong substitute for a relationship type.
fn wrong_rel_type(ty: &str) -> &'static str {
    match ty {
        "COUNTRY" => "MANAGED_BY",
        "POPULATION" => "COUNTRY",
        "ORIGINATE" => "DEPENDS_ON",
        "MEMBER_OF" => "PEERS_WITH",
        "DEPENDS_ON" => "PEERS_WITH",
        "RANK" => "CATEGORIZED",
        "RESOLVES_TO" => "RANK",
        "MANAGED_BY" => "NAME",
        "CATEGORIZED" => "NAME",
        _ => "COUNTRY",
    }
}

/// Wrong substitute for a property key.
fn wrong_property(key: &str) -> &'static str {
    match key {
        "asn" => "number",
        "country_code" => "code",
        "name" => "label",
        "prefix" => "cidr",
        "percent" => "share",
        "rank" => "position",
        "af" => "family",
        "label" => "name",
        _ => "value",
    }
}

fn for_each_match<F: FnMut(&mut iyp_cypher::ast::MatchClause) -> bool>(
    ast: &mut Query,
    mut f: F,
) -> bool {
    for clause in &mut ast.clauses {
        if let Clause::Match(m) = clause {
            if f(m) {
                return true;
            }
        }
    }
    false
}

fn mutate_rel_type(ast: &mut Query) -> bool {
    for_each_match(ast, |m| {
        for part in &mut m.patterns {
            for (rel, _) in &mut part.hops {
                if let Some(ty) = rel.types.first_mut() {
                    *ty = wrong_rel_type(ty).to_string();
                    return true;
                }
            }
        }
        false
    })
}

fn mutate_drop_hop(ast: &mut Query) -> bool {
    for_each_match(ast, |m| {
        for part in &mut m.patterns {
            if part.hops.len() >= 2 {
                // Drop the first hop; the chain restarts from its end node.
                let (_, node) = part.hops.remove(0);
                part.start = node;
                return true;
            }
        }
        false
    })
}

fn mutate_flip_direction(ast: &mut Query) -> bool {
    for_each_match(ast, |m| {
        for part in &mut m.patterns {
            if let Some((rel, _)) = part.hops.first_mut() {
                rel.dir = match rel.dir {
                    RelDir::Right => RelDir::Left,
                    RelDir::Left => RelDir::Right,
                    RelDir::Undirected => RelDir::Right,
                };
                return true;
            }
        }
        false
    })
}

fn mutate_property_name(ast: &mut Query) -> bool {
    // Rename the first inline property of a node/rel pattern...
    let renamed = for_each_match(ast, |m| {
        for part in &mut m.patterns {
            if let Some((key, _)) = part.start.props.first_mut() {
                *key = wrong_property(key).to_string();
                return true;
            }
            for (rel, node) in &mut part.hops {
                if let Some((key, _)) = rel.props.first_mut() {
                    *key = wrong_property(key).to_string();
                    return true;
                }
                if let Some((key, _)) = node.props.first_mut() {
                    *key = wrong_property(key).to_string();
                    return true;
                }
            }
        }
        false
    });
    if renamed {
        return true;
    }
    // ...or the property in the first RETURN/WITH item.
    for clause in &mut ast.clauses {
        let items = match clause {
            Clause::Return(p) | Clause::With(p) => &mut p.items,
            _ => continue,
        };
        for item in items {
            if let Expr::Prop(_, key) = &mut item.expr {
                *key = wrong_property(key).to_string();
                return true;
            }
        }
    }
    false
}

fn mutate_drop_filter(ast: &mut Query) -> bool {
    for_each_match(ast, |m| {
        if m.where_clause.is_some() {
            m.where_clause = None;
            return true;
        }
        for part in &mut m.patterns {
            // Drop the props of the *last* constrained node — dropping the
            // anchor would often still work via other constraints.
            for (_, node) in part.hops.iter_mut().rev() {
                if !node.props.is_empty() {
                    node.props.clear();
                    return true;
                }
            }
            if !part.start.props.is_empty() && !part.hops.is_empty() {
                part.start.props.clear();
                return true;
            }
        }
        false
    })
}

fn mutate_aggregate(ast: &mut Query) -> bool {
    fn swap_in(expr: &mut Expr) -> bool {
        match expr {
            Expr::Call { name, .. } => {
                let new = match name.as_str() {
                    "count" => "collect",
                    "sum" => "count",
                    "avg" => "max",
                    "min" => "max",
                    "max" => "min",
                    _ => return false,
                };
                *name = new.to_string();
                true
            }
            Expr::Bin(_, a, b) => swap_in(a) || swap_in(b),
            Expr::Prop(a, _) | Expr::Un(_, a) | Expr::IsNull(a, _) => swap_in(a),
            _ => false,
        }
    }
    for clause in &mut ast.clauses {
        let items = match clause {
            Clause::Return(p) | Clause::With(p) => &mut p.items,
            _ => continue,
        };
        for item in items {
            if swap_in(&mut item.expr) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LmConfig;
    use iyp_data::{generate, IypConfig};

    fn fixtures() -> (iyp_data::IypDataset, EntityCatalog) {
        let d = generate(&IypConfig::tiny());
        let cat = EntityCatalog::from_dataset(&d);
        (d, cat)
    }

    #[test]
    fn canonical_queries_all_parse_and_execute() {
        let (d, _) = fixtures();
        let intents = vec![
            Intent::AsName { asn: 2497 },
            Intent::AsnOfName { name: "IIJ".into() },
            Intent::AsCountry { asn: 2497 },
            Intent::CountAsInCountry {
                country: "JP".into(),
            },
            Intent::AsRank { asn: 2497 },
            Intent::CountPrefixes { asn: 2497 },
            Intent::DomainRank {
                domain: "x.com".into(),
            },
            Intent::IxpCountry {
                ixp: "Tokyo-IX".into(),
            },
            Intent::IxpMemberCount {
                ixp: "Tokyo-IX".into(),
            },
            Intent::PopulationShare {
                asn: 2497,
                country: "JP".into(),
            },
            Intent::OrgOfAs { asn: 2497 },
            Intent::TopAsInCountryByPrefixes {
                country: "US".into(),
                n: 5,
            },
            Intent::TopPopulationAs {
                country: "JP".into(),
            },
            Intent::PrefixesAfCount { asn: 2497, af: 4 },
            Intent::IxpMembersFromCountry {
                ixp: "Tokyo-IX".into(),
                country: "JP".into(),
            },
            Intent::SharedIxps { a: 2497, b: 2914 },
            Intent::TopRankedInCountry {
                country: "US".into(),
            },
            Intent::AvgPrefixesInCountry {
                country: "JP".into(),
            },
            Intent::TaggedAsInCountry {
                tag: "Eyeball".into(),
                country: "JP".into(),
            },
            Intent::TransitiveUpstreams { asn: 2497 },
            Intent::CommonUpstreams { a: 2497, b: 15169 },
            Intent::UpstreamCountries { asn: 2497 },
            Intent::TopDomainOnAs { asn: 15169 },
            Intent::UpstreamPrefixCount { asn: 2497 },
            Intent::PopulationOfTopRanked {
                country: "JP".into(),
            },
            Intent::DomainsOnAs { asn: 15169 },
        ];
        for intent in intents {
            let cy = canonical_cypher(&intent);
            let result = iyp_cypher::query(&d.graph, &cy);
            assert!(
                result.is_ok(),
                "canonical query for {:?} failed: {cy}\n{:?}",
                intent.kind(),
                result.err()
            );
        }
    }

    #[test]
    fn perfect_skill_translates_canonically() {
        let (_, cat) = fixtures();
        let t = Translator::new(
            SimLm::new(LmConfig {
                seed: 1,
                skill: 1.0,
                variety: 0.0,
            }),
            cat,
        );
        let tr = t.translate("What is the name of AS2497?");
        assert_eq!(tr.intent, Some(Intent::AsName { asn: 2497 }));
        assert_eq!(
            tr.cypher.as_deref(),
            Some("MATCH (a:AS {asn: 2497}) RETURN a.name")
        );
        assert!(tr.injected_error.is_none());
    }

    #[test]
    fn zero_skill_injects_errors() {
        let (_, cat) = fixtures();
        let t = Translator::new(
            SimLm::new(LmConfig {
                seed: 1,
                skill: 0.0,
                variety: 0.0,
            }),
            cat,
        );
        // Hard question: error probability near max.
        let mut errored = 0;
        for i in 0..20 {
            let tr = t.translate(&format!(
                "Which ASes does AS2497 depend on directly or indirectly? (v{i})"
            ));
            if tr.injected_error.is_some() {
                errored += 1;
            }
        }
        assert!(errored >= 15, "only {errored}/20 errored at zero skill");
    }

    #[test]
    fn mutations_produce_valid_but_different_cypher() {
        let gold = canonical_cypher(&Intent::PopulationShare {
            asn: 2497,
            country: "JP".into(),
        });
        for err in crate::errors::ERROR_KINDS {
            let mutated = mutate_query(&gold, *err);
            match err {
                TranslationError::NoQuery => assert!(mutated.is_none()),
                _ => {
                    if let Some(m) = mutated {
                        assert!(parse(&m).is_ok(), "mutated query unparseable: {m}");
                        assert_ne!(
                            iyp_cypher::canonicalize(&m).unwrap(),
                            iyp_cypher::canonicalize(&gold).unwrap(),
                            "mutation {err:?} produced identical query"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn drop_hop_only_applies_to_multihop() {
        let single = canonical_cypher(&Intent::AsCountry { asn: 1 });
        // Falls back to direction flip rather than returning the original.
        let m = mutate_query(&single, TranslationError::MissingHop).unwrap();
        assert_ne!(
            iyp_cypher::canonicalize(&m).unwrap(),
            iyp_cypher::canonicalize(&single).unwrap()
        );
        let multi = canonical_cypher(&Intent::UpstreamCountries { asn: 1 });
        let m = mutate_query(&multi, TranslationError::MissingHop).unwrap();
        assert!(m.matches("]->").count() < multi.matches("]->").count());
    }

    #[test]
    fn unparseable_question_yields_no_query() {
        let (_, cat) = fixtures();
        let t = Translator::new(SimLm::with_seed(1), cat);
        let tr = t.translate("What's the meaning of life?");
        assert!(tr.cypher.is_none());
        assert_eq!(tr.injected_error, Some(TranslationError::NoQuery));
    }

    #[test]
    fn translation_is_deterministic() {
        let (_, cat) = fixtures();
        let t1 = Translator::new(SimLm::with_seed(5), cat.clone());
        let t2 = Translator::new(SimLm::with_seed(5), cat);
        let q = "How many prefixes does AS2497 originate?";
        assert_eq!(t1.translate(q).cypher, t2.translate(q).cypher);
    }
}
