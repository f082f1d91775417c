//! Registry-free `#[derive(Serialize, Deserialize)]` shim.
//!
//! No `syn`/`quote` are available offline, so this crate parses the token
//! stream by hand. It supports exactly the shapes this workspace uses:
//! non-generic structs (named, tuple, unit) and non-generic enums with
//! unit, tuple, and struct variants (explicit discriminants allowed).
//! Anything fancier panics at compile time with a clear message rather
//! than silently producing wrong code.
//!
//! Generated impls target the in-tree `serde` shim's `Value` model:
//! structs become objects, unit variants become strings, data-carrying
//! variants become `{"Variant": …}` single-key objects — mirroring
//! serde_json's externally-tagged default. Named structs also get a
//! field-by-field `write_json` with the same output, so a field type that
//! writes its JSON directly is never built as a tree first.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// Derives `serde::Serialize` (shim Value model).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` (shim Value model).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ------------------------------------------------------------------ parse

fn parse_input(input: TokenStream) -> Input {
    let mut tokens = input.into_iter().peekable();
    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(kw)) => kw.to_string(),
        other => panic!("serde shim derive: expected struct/enum keyword, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    let shape = match kind.as_str() {
        "struct" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde shim derive: malformed struct `{name}`: {other:?}"),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    };
    Input { name, shape }
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes(tokens: &mut Tokens) {
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next(); // '#'
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
            other => panic!("serde shim derive: malformed attribute: {other:?}"),
        }
    }
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        // pub(crate) / pub(super) / …
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Parses `name: Type, …` field lists; returns the field names in order.
/// Commas inside angle brackets (`HashMap<String, f64>`) are tracked by
/// hand because `<…>` is not a token group.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        match tokens.next() {
            None => break,
            Some(TokenTree::Ident(field)) => {
                match tokens.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!(
                        "serde shim derive: expected `:` after field `{field}`, found {other:?}"
                    ),
                }
                fields.push(field.to_string());
                skip_type_until_comma(&mut tokens);
            }
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        }
    }
    fields
}

fn skip_type_until_comma(tokens: &mut Tokens) {
    let mut angle_depth = 0usize;
    while let Some(token) = tokens.peek() {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    tokens.next();
                    return;
                }
                _ => {}
            }
        }
        tokens.next();
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0usize;
    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        if tokens.peek().is_none() {
            break;
        }
        count += 1;
        skip_type_until_comma(&mut tokens);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner = g.stream();
                tokens.next();
                VariantShape::Tuple(count_tuple_fields(inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner = g.stream();
                tokens.next();
                VariantShape::Named(parse_named_fields(inner))
            }
            _ => VariantShape::Unit,
        };
        // optional explicit discriminant: `= <expr>` — skip to the comma
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            skip_type_until_comma(&mut tokens);
        } else if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            tokens.next();
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vname} => ::serde::Value::Str(\"{vname}\".to_string())"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vname}(f0) => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Serialize::to_value(f0))])"
                        ),
                        VariantShape::Tuple(arity) => {
                            let binds: Vec<String> =
                                (0..*arity).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*arity)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Value::Array(vec![{}]))])",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds = fields.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Value::Object(vec![(\"{vname}\".to_string(), ::serde::Value::Object(vec![{}]))])",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    // Named structs also write themselves field by field, so a field
    // with its own direct writer is never rendered through a tree.
    let write_json = match &input.shape {
        Shape::NamedStruct(fields) => {
            let writes: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let sep = if i == 0 { "" } else { "," };
                    format!(
                        "out.push_str(\"{sep}\\\"{f}\\\":\"); \
                         ::serde::Serialize::write_json(&self.{f}, out);"
                    )
                })
                .collect();
            format!(
                "\tfn write_json(&self, out: &mut ::std::string::String) {{ \
                 out.push('{{'); {} out.push('}}'); }}\n",
                writes.join(" ")
            )
        }
        _ => String::new(),
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         {write_json}\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(value.get(\"{f}\").unwrap_or(&::serde::Value::Null)).map_err(|e| e.context(\"{name}.{f}\"))?"
                    )
                })
                .collect();
            format!(
                "if value.as_object().is_none() {{\n\
                 \treturn Err(::serde::DeError::new(\"{name}: expected object\"));\n\
                 }}\n\
                 Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Shape::TupleStruct(arity) => {
            let inits: Vec<String> = (0..*arity)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(&items[{i}]).map_err(|e| e.context(\"{name}.{i}\"))?"
                    )
                })
                .collect();
            format!(
                "let items = value.as_array().ok_or_else(|| ::serde::DeError::new(\"{name}: expected array\"))?;\n\
                 if items.len() != {arity} {{\n\
                 \treturn Err(::serde::DeError::new(\"{name}: wrong arity\"));\n\
                 }}\n\
                 Ok({name}({}))",
                inits.join(", ")
            )
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0})", v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        VariantShape::Unit => None,
                        VariantShape::Tuple(1) => Some(format!(
                            "\"{vname}\" => Ok({name}::{vname}(::serde::Deserialize::from_value(inner).map_err(|e| e.context(\"{name}::{vname}\"))?))"
                        )),
                        VariantShape::Tuple(arity) => {
                            let inits: Vec<String> = (0..*arity)
                                .map(|i| {
                                    format!(
                                        "::serde::Deserialize::from_value(&items[{i}]).map_err(|e| e.context(\"{name}::{vname}.{i}\"))?"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => {{\n\
                                 \tlet items = inner.as_array().ok_or_else(|| ::serde::DeError::new(\"{name}::{vname}: expected array\"))?;\n\
                                 \tif items.len() != {arity} {{\n\
                                 \t\treturn Err(::serde::DeError::new(\"{name}::{vname}: wrong arity\"));\n\
                                 \t}}\n\
                                 \tOk({name}::{vname}({}))\n\
                                 }}",
                                inits.join(", ")
                            ))
                        }
                        VariantShape::Named(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "{f}: ::serde::Deserialize::from_value(inner.get(\"{f}\").unwrap_or(&::serde::Value::Null)).map_err(|e| e.context(\"{name}::{vname}.{f}\"))?"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => Ok({name}::{vname} {{ {} }})",
                                inits.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match value {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n\
                 {unit}\n\
                 other => Err(::serde::DeError::new(format!(\"{name}: unknown variant {{other:?}}\"))),\n\
                 }},\n\
                 v => {{\n\
                 \tlet entries = v.as_object().ok_or_else(|| ::serde::DeError::new(\"{name}: expected variant string or object\"))?;\n\
                 \tif entries.len() != 1 {{\n\
                 \t\treturn Err(::serde::DeError::new(\"{name}: expected single-key variant object\"));\n\
                 \t}}\n\
                 \tlet (tag, inner) = &entries[0];\n\
                 \tmatch tag.as_str() {{\n\
                 {data}\n\
                 other => Err(::serde::DeError::new(format!(\"{name}: unknown variant {{other:?}}\"))),\n\
                 \t}}\n\
                 }}\n\
                 }}",
                unit = if unit_arms.is_empty() {
                    String::new()
                } else {
                    format!("{},", unit_arms.join(",\n"))
                },
                data = if data_arms.is_empty() {
                    String::new()
                } else {
                    format!("{},", data_arms.join(",\n"))
                },
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         \tfn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n\
         \t}}\n\
         }}"
    )
}
