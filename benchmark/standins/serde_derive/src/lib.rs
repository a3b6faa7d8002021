//! Offline stand-in for `serde_derive`, written against `proc_macro`
//! alone (no `syn`/`quote` in the sandbox). It covers the shapes this
//! repository derives on: non-generic structs with named fields, and
//! enums of unit variants with an optional
//! `#[serde(rename_all = "lowercase" | "snake_case")]`. Anything else
//! is a compile error rather than a silent mis-serialization.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Struct(Vec<String>),
    Enum(Vec<String>),
}

struct Item {
    name: String,
    rename_all: Option<String>,
    shape: Shape,
}

fn rename_all_of(attr: &TokenStream) -> Option<String> {
    let mut tokens = attr.clone().into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = tokens.next() else {
        return None;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    for window in args.windows(3) {
        if let (TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(value)) =
            (&window[0], &window[1], &window[2])
        {
            if key.to_string() == "rename_all" && eq.as_char() == '=' {
                return Some(value.to_string().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Names declared in a brace body: field names of a struct (the ident
/// before `:`) or variant names of an enum.
fn member_names(body: TokenStream, is_struct: bool) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let mut tokens = body.into_iter().peekable();
    while let Some(token) = tokens.next() {
        match token {
            // Attribute (doc comments included): `#` then `[...]`.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                tokens.next();
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            TokenTree::Ident(id) => {
                names.push(id.to_string());
                if is_struct {
                    match tokens.next() {
                        Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                        _ => return Err("expected `:` after a field name".into()),
                    }
                } else if let Some(TokenTree::Group(_)) = tokens.peek() {
                    return Err("only unit enum variants are supported".into());
                }
                // Skip the type (or discriminant) up to the next
                // top-level comma; `<`/`>` nest, groups are one token.
                let mut depth = 0i32;
                for rest in tokens.by_ref() {
                    if let TokenTree::Punct(p) = &rest {
                        match p.as_char() {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            ',' if depth <= 0 => break,
                            _ => {}
                        }
                    }
                }
            }
            other => return Err(format!("unexpected token `{other}`")),
        }
    }
    Ok(names)
}

fn parse(input: TokenStream) -> Result<Item, String> {
    let mut rename_all = None;
    let mut tokens = input.into_iter().peekable();
    while let Some(token) = tokens.next() {
        match token {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.next() {
                    if let Some(rule) = rename_all_of(&g.stream()) {
                        rename_all = Some(rule);
                    }
                }
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(_)) = tokens.peek() {
                    tokens.next();
                }
            }
            TokenTree::Ident(id) if matches!(id.to_string().as_str(), "struct" | "enum") => {
                let is_struct = id.to_string() == "struct";
                let Some(TokenTree::Ident(name)) = tokens.next() else {
                    return Err("expected a type name".into());
                };
                return match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let names = member_names(g.stream(), is_struct)?;
                        Ok(Item {
                            name: name.to_string(),
                            rename_all,
                            shape: if is_struct {
                                Shape::Struct(names)
                            } else {
                                Shape::Enum(names)
                            },
                        })
                    }
                    _ => {
                        Err("only non-generic brace-bodied structs and enums are supported".into())
                    }
                };
            }
            other => return Err(format!("unexpected token `{other}`")),
        }
    }
    Err("no struct or enum found".into())
}

fn rename(name: &str, rule: Option<&str>) -> Result<String, String> {
    match rule {
        None => Ok(name.to_string()),
        Some("lowercase") => Ok(name.to_lowercase()),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in name.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            Ok(out)
        }
        Some(other) => Err(format!("unsupported rename_all rule `{other}`")),
    }
}

fn expand(input: TokenStream, body: fn(&Item) -> Result<String, String>) -> TokenStream {
    let code = parse(input)
        .and_then(|item| body(&item))
        .unwrap_or_else(|message| {
            format!(
                "compile_error!({:?});",
                format!("serde stand-in derive: {message}")
            )
        });
    code.parse().expect("generated code is valid Rust")
}

fn serialize_impl(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let rule = item.rename_all.as_deref();
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut body = String::from("out.push('{');");
            for (i, field) in fields.iter().enumerate() {
                let key = rename(field, rule)?;
                let prefix = if i == 0 { "" } else { "," };
                body.push_str(&format!(
                    "out.push_str({:?}); ::serde::Serialize::serialize_json(&self.{field}, out);",
                    format!("{prefix}\"{key}\":")
                ));
            }
            body.push_str("out.push('}');");
            body
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for variant in variants {
                let key = rename(variant, rule)?;
                arms.push_str(&format!("{name}::{variant} => {:?},", format!("\"{key}\"")));
            }
            format!("out.push_str(match self {{ {arms} }});")
        }
    };
    Ok(format!(
        "impl ::serde::Serialize for {name} {{ \
           fn serialize_json(&self, out: &mut ::std::string::String) {{ {body} }} }}"
    ))
}

fn deserialize_impl(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let rule = item.rename_all.as_deref();
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut slots = String::new();
            let mut arms = String::new();
            let mut build = String::new();
            for (i, field) in fields.iter().enumerate() {
                let key = rename(field, rule)?;
                slots.push_str(&format!("let mut slot{i} = ::std::option::Option::None;"));
                arms.push_str(&format!(
                    "{key:?} => slot{i} = ::std::option::Option::Some(\
                       ::serde::Deserialize::deserialize_json(parser)?),"
                ));
                build.push_str(&format!(
                    "{field}: match slot{i} {{ \
                       ::std::option::Option::Some(value) => value, \
                       ::std::option::Option::None => ::serde::Deserialize::missing_field({key:?})?, }},"
                ));
            }
            format!(
                "{slots} parser.begin_object()?; let mut first = true; \
                 while let ::std::option::Option::Some(key) = parser.next_key(&mut first)? {{ \
                   match key.as_str() {{ {arms} _ => parser.skip_value()?, }} }} \
                 ::std::result::Result::Ok({name} {{ {build} }})"
            )
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for variant in variants {
                let key = rename(variant, rule)?;
                arms.push_str(&format!(
                    "{key:?} => ::std::result::Result::Ok({name}::{variant}),"
                ));
            }
            format!(
                "let tag = parser.parse_string()?; match tag.as_str() {{ {arms} \
                 other => ::std::result::Result::Err(parser.error(\
                   ::std::format!(\"unknown variant `{{other}}`\"))), }}"
            )
        }
    };
    Ok(format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn deserialize_json(parser: &mut ::serde::json::Parser<'_>) \
             -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }} }}"
    ))
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}
